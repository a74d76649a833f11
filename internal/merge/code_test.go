package merge

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/codes"
)

func randomRuns(rng *rand.Rand, k, maxLen int) [][]codes.Code {
	runs := make([][]codes.Code, k)
	for i := range runs {
		n := rng.IntN(maxLen + 1)
		runs[i] = make([]codes.Code, n)
		for j := range runs[i] {
			runs[i][j] = codes.Code(rng.Uint64N(64)) // heavy duplicates
		}
		slices.Sort(runs[i])
	}
	return runs
}

// TestKWayByCodeMatchesKWay: on the pure plane, the code-keyed merge is
// element-for-element identical to the comparator merge (including
// duplicate tie-break order).
func TestKWayByCodeMatchesKWay(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range []int{0, 1, 2, 3, 5, 8, 17, 64} {
		runs := randomRuns(rng, k, 200)
		want := KWay(runs, codes.Compare)
		got := KWayByCode(runs, codes.ExtractCode)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: KWayByCode diverged from KWay", k)
		}
	}
}

// TestKWayByCodeExtractor: the extractor plane merges records by code
// with lower-run tie-break, matching KWay under the equivalent
// comparator.
func TestKWayByCodeExtractor(t *testing.T) {
	type rec struct {
		key uint64
		run int
	}
	rng := rand.New(rand.NewPCG(3, 4))
	runs := make([][]rec, 6)
	for i := range runs {
		n := rng.IntN(100)
		for j := 0; j < n; j++ {
			runs[i] = append(runs[i], rec{key: rng.Uint64N(16), run: i})
		}
		slices.SortFunc(runs[i], func(a, b rec) int { return cmp.Compare(a.key, b.key) })
	}
	want := KWay(runs, func(a, b rec) int { return cmp.Compare(a.key, b.key) })
	got := KWayByCode(runs, func(r rec) uint64 { return r.key })
	if !slices.Equal(got, want) {
		t.Fatal("extractor merge diverged from comparator merge")
	}
}

// TestCodeTreeStreamingMatchesLoserTree drives a CodeTree and a
// LoserTree through an identical randomized chunked feed (adds, appends,
// closes, interleaved guarded drains) and demands identical emissions.
func TestCodeTreeStreamingMatchesLoserTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.IntN(7)
		ct := NewStreamer[codes.Code](codes.Compare, nil) // pure plane
		lt := NewStreaming(codes.Compare)
		if !ct.pl.pure {
			t.Fatal("NewStreamer did not pick the pure code plane for codes.Code")
		}

		// Per-run remaining chunk queues.
		chunks := make([][][]codes.Code, k)
		for i := 0; i < k; i++ {
			var last codes.Code
			for c := 0; c < rng.IntN(4); c++ {
				n := rng.IntN(20)
				chunk := make([]codes.Code, n)
				for j := range chunk {
					last += codes.Code(rng.Uint64N(3))
					chunk[j] = last
				}
				chunks[i] = append(chunks[i], chunk)
			}
			ci := ct.AddRun(nil)
			li := lt.AddRun(nil)
			if ci != li {
				t.Fatal("run indices diverged")
			}
		}
		var got, want []codes.Code
		closed := make([]bool, k)
		allClosed := func() bool {
			for _, c := range closed {
				if !c {
					return false
				}
			}
			return true
		}
		for {
			// Random event: feed a chunk, close a run, or drain.
			switch ev := rng.IntN(3); {
			case ev == 0:
				i := rng.IntN(k)
				if len(chunks[i]) > 0 && !closed[i] {
					ct.Append(i, slices.Clone(chunks[i][0]))
					lt.Append(i, slices.Clone(chunks[i][0]))
					chunks[i] = chunks[i][1:]
				}
			case ev == 1:
				i := rng.IntN(k)
				if len(chunks[i]) == 0 && !closed[i] {
					ct.CloseRun(i)
					lt.CloseRun(i)
					closed[i] = true
				}
			default:
				for {
					g, gok := ct.NextReady()
					w, wok := lt.NextReady()
					if gok != wok {
						t.Fatalf("trial %d: readiness diverged (%v vs %v)", trial, gok, wok)
					}
					if !gok {
						break
					}
					got = append(got, g)
					want = append(want, w)
					if ct.Consumed(0) != lt.Consumed(0) {
						t.Fatalf("trial %d: consumed counts diverged", trial)
					}
				}
			}
			if allClosed() && ct.Exhausted() && lt.Exhausted() {
				break
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: emissions diverged (%d vs %d keys)", trial, len(got), len(want))
		}
		if !slices.IsSorted(got) {
			t.Fatalf("trial %d: emissions not sorted", trial)
		}
	}
}

// TestCodeTreePanics: the parallel-array contract is enforced.
func TestCodeTreePanics(t *testing.T) {
	tr := NewCodeTree[codes.Code]()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddRun length mismatch did not panic")
			}
		}()
		tr.AddRun([]codes.Code{1, 2}, []codes.Code{1})
	}()
	i := tr.AddRun(nil, nil)
	tr.CloseRun(i)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append to closed run did not panic")
			}
		}()
		tr.Append(i, []codes.Code{1}, []codes.Code{1})
	}()
}

// TestCodeMergeInnerLoopZeroAlloc is the code-path merge allocation
// gate: once runs are loaded and the tournament is built, emitting every
// key allocates nothing — no per-key and no per-replay allocations.
func TestCodeMergeInnerLoopZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	runs := randomRuns(rng, 16, 2000)
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	tr := NewCodeTree[codes.Code]()
	for _, r := range runs {
		i := tr.AddRun(r, r)
		tr.CloseRun(i)
	}
	out := make([]codes.Code, 0, total)
	// Prime the tree so the one-time build happens outside the window.
	if k, ok := tr.Next(); ok {
		out = append(out, k)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for {
			k, ok := tr.Next()
			if !ok {
				break
			}
			out = append(out, k)
		}
	})
	if allocs != 0 {
		t.Fatalf("merge inner loop allocated %.1f times per drain, want 0", allocs)
	}
	if len(out) != total || !slices.IsSorted(out) {
		t.Fatalf("drain produced %d keys (want %d), sorted=%v", len(out), total, slices.IsSorted(out))
	}
}
