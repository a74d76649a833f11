package exchange

import (
	"bytes"
	"cmp"
	"slices"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/keycoder"
	"hssort/internal/spill"
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
// several streaming exchanges — a plane switch between the comparator
// and code-keyed merge, budgeted rounds whose streams divert to disk,
// and a one-rank world — produces output identical to a fresh Scratch
// every time, and a budgeted round leaves every meter back at its
// budget. Scratch release happens only after all ranks joined — the
// contract the engine follows.
func TestScratchReuseEquivalence(t *testing.T) {
	const perRank = 3000
	// An incoming stream is about perRank/p keys; half of one fits.
	const budget = perRank / 4 * 8 / 2
	icmp := cmp.Compare[int64]
	code := func(k int64) uint64 { return keycoder.Int64{}.Encode(k) }
	rounds := []struct {
		p      int
		coded  bool
		budget int64
	}{
		{4, false, 0}, {4, true, 0}, {4, false, budget}, {4, true, 0},
		{1, false, 0}, {4, true, budget}, {1, true, 0}, {4, false, 0},
	}

	scratches := make([]*Scratch[int64], 4)
	for r := range scratches {
		scratches[r] = &Scratch[int64]{}
	}
	for round, rd := range rounds {
		p := rd.p
		shards := scratchShards(p, perRank, int64(round+1))
		splitters := []int64{-1 << 41, 0, 1 << 41}[:p-1]
		var extractor func(int64) uint64
		if rd.coded {
			extractor = code
		}
		mgrs := make([]*spill.Manager, p)
		if rd.budget > 0 {
			for r := range mgrs {
				m, err := spill.NewManager(rd.budget, t.TempDir(), r)
				if err != nil {
					t.Fatal(err)
				}
				mgrs[r] = m
			}
		}

		run := func(sc func(r int) *Scratch[int64]) [][]int64 {
			outs := make([][]int64, p)
			w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
			err := w.Run(func(c *comm.Comm) error {
				r := c.Rank()
				runs := Partition(slices.Clone(shards[r]), splitters, icmp)
				out, _, err := ExchangeStream(c, 1, runs, ContiguousOwner(p, p), icmp, extractor,
					StreamOptions{ChunkKeys: 256, Spill: mgrs[r]}, sc(r))
				outs[r] = out
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, m := range mgrs {
				if m != nil && m.Room() != rd.budget {
					t.Fatalf("round %d rank %d: meter holds %d bytes after the exchange", round, r, rd.budget-m.Room())
				}
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
		for r, m := range mgrs {
			if m != nil && m.TakeCounters().SpilledBytes == 0 {
				t.Fatalf("round %d rank %d: no stream diverted under a %d-byte budget", round, r, rd.budget)
			}
		}
		// All ranks joined: releasing is now safe, as the engine does.
		for _, sc := range scratches {
			sc.Release()
		}
	}
}

// TestMergeHeldReusesAndReleases: MergeHeld merges as a fresh merge does,
// reuses its array on the next call, and Release drops every byte key it
// held, so a parked engine pins none.
func TestMergeHeldReusesAndReleases(t *testing.T) {
	runs := [][][]byte{{[]byte("a"), []byte("d")}, {[]byte("b"), []byte("c"), []byte("e")}}
	want := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	var sc Scratch[[]byte]
	first := sc.MergeHeld(runs, bytes.Compare, nil, false, nil)
	if !slices.EqualFunc(first, want, bytes.Equal) {
		t.Fatalf("held merge %q, want %q", first, want)
	}
	second := sc.MergeHeld(runs[1:], bytes.Compare, nil, false, nil)
	if &second[0] != &first[0] {
		t.Error("the second merge did not reuse the held array")
	}
	if nilScratch := (*Scratch[[]byte])(nil).MergeHeld(runs, bytes.Compare, nil, false, nil); !slices.EqualFunc(nilScratch, want, bytes.Equal) {
		t.Fatalf("nil-scratch merge %q, want %q", nilScratch, want)
	}
	sc.Release()
	for i, k := range first[:cap(first)] {
		if k != nil {
			t.Fatalf("key %d (%q) still held after Release", i, k)
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
