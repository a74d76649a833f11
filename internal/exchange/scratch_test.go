package exchange

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/keycoder"
)

// scratchShards builds p deterministic sorted shards.
func scratchShards(p, perRank int, seed int64) [][]int64 {
	shards := make([][]int64, p)
	v := seed
	for r := range shards {
		for i := 0; i < perRank; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			shards[r] = append(shards[r], v>>20)
		}
		slices.Sort(shards[r])
	}
	return shards
}

// TestScratchReuseEquivalence: one Scratch per rank, reused across
// several streaming exchanges (including a plane switch between the
// comparator and code-keyed merge), produces output identical to the
// scratch-free path every time. Scratch release happens only after all
// ranks joined — the contract the engine follows.
func TestScratchReuseEquivalence(t *testing.T) {
	const p, perRank, rounds = 4, 3000, 4
	icmp := cmp.Compare[int64]
	splitters := []int64{-1 << 41, 0, 1 << 41}
	owner := func(b int) int { return b }
	opt := StreamOptions{ChunkKeys: 256}
	code := func(k int64) uint64 { return keycoder.Int64{}.Encode(k) }

	scratches := make([]*Scratch[int64], p)
	for r := range scratches {
		scratches[r] = &Scratch[int64]{}
	}
	for round := 0; round < rounds; round++ {
		shards := scratchShards(p, perRank, int64(round+1))
		// Alternate merge planes to exercise the cached-streamer swap.
		var extractor func(int64) uint64
		if round%2 == 1 {
			extractor = code
		}

		run := func(sc func(r int) *Scratch[int64]) [][]int64 {
			outs := make([][]int64, p)
			w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
			err := w.Run(func(c *comm.Comm) error {
				runs := Partition(slices.Clone(shards[c.Rank()]), splitters, icmp)
				out, _, err := ExchangeStream(c, 1, runs, owner, icmp, extractor, opt, sc(c.Rank()))
				outs[c.Rank()] = out
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			return outs
		}
		want := run(func(int) *Scratch[int64] { return nil })
		got := run(func(r int) *Scratch[int64] { return scratches[r] })
		for r := range want {
			if !slices.Equal(want[r], got[r]) {
				t.Fatalf("round %d rank %d: scratch output differs (%d vs %d keys)",
					round, r, len(got[r]), len(want[r]))
			}
		}
		// All ranks joined: releasing is now safe, as the engine does.
		for _, sc := range scratches {
			sc.Release()
		}
	}
}

// TestRunsImbalance: the pre-exchange round-0 histogram reports the exact
// bucket loads and bucket-level imbalance on every rank.
func TestRunsImbalance(t *testing.T) {
	const p = 3
	// Global bucket loads: 3+0+1=4, 1+2+0=3, 0+1+1=2 → max 4, N 9,
	// B 3 → imbalance 4·3/9.
	runsByRank := [][][]int64{
		{{1, 2, 3}, {10}, {}},
		{{}, {11, 12}, {20}},
		{{4}, {}, {21}},
	}
	want := 4.0 * 3 / 9
	w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		imb, loads, err := RunsImbalance(c, 5, runsByRank[c.Rank()])
		if err != nil {
			return err
		}
		if !slices.Equal(loads, []int64{4, 3, 2}) {
			t.Errorf("rank %d: loads = %v, want [4 3 2]", c.Rank(), loads)
		}
		if imb != want {
			t.Errorf("rank %d: imbalance = %v, want %v", c.Rank(), imb, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
