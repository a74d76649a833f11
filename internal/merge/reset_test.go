package merge

import (
	"cmp"
	"slices"
	"testing"

	"hssort/internal/codes"
)

// drainStreamer closes every open run and pulls the full merged order.
func drainStreamer(s *Streamer[int64], open []int) []int64 {
	for _, i := range open {
		s.CloseRun(i)
	}
	var out []int64
	for {
		k, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, k)
	}
	return out
}

// TestStreamerReset: a Reset streamer behaves exactly like a fresh one,
// across several reuse cycles with varying run counts, on both the
// comparator tree and the code-keyed tree (the engine-reuse contract).
func TestStreamerReset(t *testing.T) {
	icmp := cmp.Compare[int64]
	variants := []struct {
		name string
		mk   func() *Streamer[int64]
	}{
		{"loser-tree", func() *Streamer[int64] { return NewStreaming(icmp) }},
		{"code-tree", func() *Streamer[int64] {
			return NewStreamer(icmp, func(k int64) uint64 { return uint64(k) ^ 1<<63 })
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			s := v.mk()
			for cycle := 0; cycle < 4; cycle++ {
				s.Reset()
				k := 2 + (cycle*3)%5 // vary run counts across cycles
				var want []int64
				var open []int
				for r := 0; r < k; r++ {
					run := make([]int64, 0, 10)
					for i := 0; i < 10; i++ {
						run = append(run, int64(cycle*1000+i*k+r-5000))
					}
					want = append(want, run...)
					idx := s.AddRun(run[:4])
					s.Append(idx, run[4:])
					open = append(open, idx)
				}
				slices.Sort(want)
				got := drainStreamer(s, open)
				if !slices.Equal(got, want) {
					t.Fatalf("cycle %d: reset streamer mis-merged (%d vs %d keys)", cycle, len(got), len(want))
				}
				if !s.Exhausted() {
					t.Fatalf("cycle %d: drained streamer not exhausted", cycle)
				}
			}
		})
	}
}

// TestCodeTreeResetDropsReferences: Reset empties the tree's run tables
// (length zero) so no chunk references survive into the next sort.
func TestCodeTreeResetDropsReferences(t *testing.T) {
	ct := NewCodeTree[int64]()
	cs := []codes.Code{1, 2, 3}
	ct.AddRun(cs, []int64{1, 2, 3})
	ct.CloseRun(0)
	for {
		if _, ok := ct.Next(); !ok {
			break
		}
	}
	ct.Reset()
	if len(ct.codes) != 0 || len(ct.elems) != 0 || ct.n != 0 {
		t.Fatalf("Reset left run state behind: %d codes, %d elems, n=%d", len(ct.codes), len(ct.elems), ct.n)
	}
	if !ct.Exhausted() {
		t.Fatal("empty tree not exhausted")
	}
}
