package core

import (
	"slices"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
)

// TestCoveragePerRound checks Stats.CoveragePerRound, G_j after each
// round, on a flat sort and a two-level one: one entry per round on every
// rank, shrinking within each level, and 0 at the end when every splitter
// finalized. At two levels level 2's entries follow level 1's, whose last
// is 0, so the list rises exactly once, where level 2 starts.
func TestCoveragePerRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      int
		levels int
	}{{"flat", 6, 1}, {"two-level", 16, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			shards := dist.Spec{Kind: dist.Uniform}.Shards(2000, tc.p, 3)
			if _, _, two := Levels(tc.p, int64(2000*tc.p), Options[int64]{}); two != (tc.levels == 2) {
				t.Fatalf("Levels: two levels %v at p = %d", two, tc.p)
			}
			stats := make([]Stats, tc.p)
			finalized := make([]bool, tc.p)
			w := comm.NewWorld(tc.p, comm.WithTimeout(60*time.Second))
			err := w.Run(func(c *comm.Comm) error {
				f, err := FrontHalf(c, shards[c.Rank()], Options[int64]{Cmp: icmp, Epsilon: 0.02, Seed: 5}, HSS[int64]())
				if err != nil {
					return err
				}
				finalized[c.Rank()] = f.Finalized
				_, stats[c.Rank()], err = f.BackHalf(c)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			st := stats[0]
			cov := st.CoveragePerRound
			if len(cov) != st.Rounds || len(st.SamplePerRound) != st.Rounds || st.Rounds == 0 {
				t.Fatalf("%d coverage and %d sample entries for %d rounds", len(cov), len(st.SamplePerRound), st.Rounds)
			}
			for r := range stats {
				if !slices.Equal(stats[r].CoveragePerRound, cov) {
					t.Errorf("rank %d coverage %v, rank 0 %v", r, stats[r].CoveragePerRound, cov)
				}
			}
			if cov[0] <= 0 || cov[0] >= st.N {
				t.Errorf("first-round coverage %d of %d keys", cov[0], st.N)
			}
			levels := 1
			for j := 1; j < len(cov); j++ {
				if cov[j] > cov[j-1] {
					levels++
					if cov[j-1] != 0 {
						t.Errorf("coverage rose at round %d from %d: %v", j+1, cov[j-1], cov)
					}
				}
			}
			if levels != tc.levels {
				t.Errorf("coverage %v shows %d levels, want %d", cov, levels, tc.levels)
			}
			if !finalized[0] || cov[len(cov)-1] != 0 {
				t.Errorf("finalized %v with final coverage %d", finalized[0], cov[len(cov)-1])
			}
		})
	}
}

// TestBucketsExceedKeys exercises the degenerate regime where there are
// more buckets than keys: many targets collapse to the same rank and
// most buckets end empty, but the sort must stay correct.
func TestBucketsExceedKeys(t *testing.T) {
	const p = 4
	shards := [][]int64{{5, 1}, {9}, {3}, {7, 2}}
	in := make([][]int64, p)
	for i := range shards {
		in[i] = slices.Clone(shards[i])
	}
	outs := make([][]int64, p)
	w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, _, err := Sort(c, in[c.Rank()], Options[int64]{
			Cmp: icmp, Epsilon: 0.1, Buckets: 64, Seed: 3,
		})
		outs[c.Rank()] = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)
}

// TestTwoRanksMinimal pins the smallest nontrivial world.
func TestTwoRanksMinimal(t *testing.T) {
	shards := [][]int64{{2}, {1}}
	in := [][]int64{{2}, {1}}
	outs := make([][]int64, 2)
	w := comm.NewWorld(2, comm.WithTimeout(30*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, _, err := Sort(c, in[c.Rank()], Options[int64]{Cmp: icmp, Epsilon: 0.5, Seed: 1})
		outs[c.Rank()] = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)
}
