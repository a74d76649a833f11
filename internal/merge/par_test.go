package merge

import (
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// randomRuns builds k sorted code runs totalling ~total keys, drawn from
// the given value span (small spans stress duplicates).
func randomSpanRuns(rng *rand.Rand, k, total int, span uint64) [][]codes.Code {
	runs := make([][]codes.Code, k)
	for r := range runs {
		n := total / k
		if r == 0 {
			n += total % k
		}
		run := make([]codes.Code, n)
		for i := range run {
			if span == 0 {
				run[i] = codes.Code(rng.Uint64())
			} else {
				run[i] = codes.Code(rng.Uint64N(span))
			}
		}
		slices.Sort(run)
		runs[r] = run
	}
	return runs
}

// checkCuts asserts the SplitRuns contract: per run, cuts are
// non-decreasing, in range, and covering; across parts, every code value
// falls in exactly one part (max of part p strictly below min of part
// p+1 over non-empty parts).
func checkCuts(t *testing.T, runs [][]codes.Code, cuts [][]int, parts int) {
	t.Helper()
	if len(cuts) != len(runs) {
		t.Fatalf("cuts for %d runs, want %d", len(cuts), len(runs))
	}
	for r, c := range cuts {
		if len(c) != parts+1 {
			t.Fatalf("run %d: %d cuts, want %d", r, len(c), parts+1)
		}
		if c[0] != 0 || c[parts] != len(runs[r]) {
			t.Fatalf("run %d: cuts %v do not cover [0,%d)", r, c, len(runs[r]))
		}
		for p := 1; p <= parts; p++ {
			if c[p] < c[p-1] {
				t.Fatalf("run %d: cuts %v not monotone", r, c)
			}
		}
	}
	// Order-disjointness with no value split across parts: strict
	// inequality between a part's max and the next non-empty part's min.
	prevSet := false
	var prevMax codes.Code
	for p := 0; p < parts; p++ {
		var lo, hi codes.Code
		empty := true
		for r, run := range runs {
			seg := run[cuts[r][p]:cuts[r][p+1]]
			if len(seg) == 0 {
				continue
			}
			if empty || seg[0] < lo {
				lo = seg[0]
			}
			if empty || seg[len(seg)-1] > hi {
				hi = seg[len(seg)-1]
			}
			empty = false
		}
		if empty {
			continue
		}
		if prevSet && lo <= prevMax {
			t.Fatalf("part %d min %d <= previous part max %d: a value spans two parts", p, lo, prevMax)
		}
		prevMax, prevSet = hi, true
	}
}

func TestSplitRunsContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	shapes := []struct {
		k, total int
		span     uint64
	}{
		{1, 1000, 0}, {4, 10_000, 0}, {4, 10_000, 8}, {7, 5000, 1},
		{3, 0, 0}, {5, 300, 1 << 40},
	}
	for _, sh := range shapes {
		runs := randomSpanRuns(rng, sh.k, sh.total, sh.span)
		for _, parts := range []int{1, 2, 3, 8, 64} {
			cuts := SplitRuns(runs, parts)
			checkCuts(t, runs, cuts, parts)
			// Property: the per-part ranges partition each run exactly
			// (multiset identity is immediate: the parts are contiguous,
			// monotone, covering slices of each run — checked above).
		}
	}
}

func TestParMergeMatchesKWay(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	cmp := codes.Compare
	for _, span := range []uint64{0, 16, 1} {
		for _, total := range []int{0, 100, parMergeCutoff + 999} {
			runs := randomSpanRuns(rng, 5, total, span)
			want := KWay(runs, cmp)
			for _, w := range []int{1, 2, 3, 8} {
				got := Runs(nil, runs, cmp, nil, false, par.New(w), nil)
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d total=%d span=%d: ParMerge diverged from KWay", w, total, span)
				}
			}
			// Appending to a non-empty dst preserves the prefix.
			prefix := []codes.Code{7, 7, 7}
			got := Runs(slices.Clone(prefix), runs, cmp, nil, false, par.New(4), nil)
			if !slices.Equal(got[:3], prefix) || !slices.Equal(got[3:], want) {
				t.Fatalf("total=%d span=%d: ParMerge clobbered dst prefix", total, span)
			}
		}
	}
}

func TestParMergeCodedMatchesSerial(t *testing.T) {
	// Decorated plane: payload tags must ride codes exactly as in the
	// serial CodeTree merge — byte-identical, tie-breaks included.
	type rec struct {
		k   uint64
		tag int
	}
	rng := rand.New(rand.NewPCG(35, 36))
	k, total := 4, parMergeCutoff*2
	elemRuns := make([][]rec, k)
	codeRuns := make([][]codes.Code, k)
	id := 0
	for r := range elemRuns {
		run := make([]rec, total/k)
		for i := range run {
			run[i] = rec{k: rng.Uint64N(64), tag: id} // heavy duplicates
			id++
		}
		slices.SortFunc(run, func(a, b rec) int { return codes.Compare(codes.Code(a.k), codes.Code(b.k)) })
		elemRuns[r] = run
		codeRuns[r] = codes.Extract(run, func(e rec) uint64 { return e.k })
	}
	want := KWayByCode(elemRuns, func(e rec) uint64 { return e.k })
	for _, w := range []int{1, 2, 3, 8} {
		got := RunsCoded(nil, elemRuns, codeRuns, nil, par.New(w), nil)
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: ParMergeCoded diverged from KWayByCode", w)
		}
		got = ParMergeByCode(nil, elemRuns, func(e rec) uint64 { return e.k }, par.New(w))
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: ParMergeByCode diverged from KWayByCode", w)
		}
	}
}

func TestParMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	runs := randomSpanRuns(rng, 6, parMergeCutoff*3, 128)
	p := par.New(4)
	first := Runs(nil, runs, codes.Compare, nil, false, p, nil)
	for run := 0; run < 3; run++ {
		if again := Runs(nil, runs, codes.Compare, nil, false, p, nil); !slices.Equal(again, first) {
			t.Fatalf("run %d: ParMerge output differs from first run", run)
		}
	}
}

func TestLoserTreeRest(t *testing.T) {
	lt := NewStreaming(codes.Compare)
	a := lt.AddRun([]codes.Code{1, 4, 9})
	b := lt.AddRun(nil)
	lt.Append(b, []codes.Code{2, 3})
	lt.Append(b, []codes.Code{5, 8}) // queued behind the current chunk
	lt.CloseRun(a)
	lt.CloseRun(b)
	// Consume two keys through the tree, then take the rest in bulk.
	for i := 0; i < 2; i++ {
		if _, ok := lt.NextReady(); !ok {
			t.Fatal("NextReady blocked on closed runs")
		}
	}
	rest, cs := lt.Rest()
	if cs != nil {
		t.Fatal("comparator plane must report nil codes")
	}
	if len(rest) != 2 {
		t.Fatalf("Rest returned %d runs, want 2", len(rest))
	}
	if !slices.Equal(rest[0], []codes.Code{4, 9}) {
		t.Fatalf("run a rest = %v", rest[0])
	}
	if !slices.Equal(rest[1], []codes.Code{3, 5, 8}) {
		t.Fatalf("run b rest = %v (multi-chunk concat)", rest[1])
	}
	if !lt.Exhausted() {
		t.Fatal("tree not exhausted after Rest")
	}
	if lt.Consumed(a)+lt.Consumed(b) != 7 {
		t.Fatalf("consumed %d+%d, want 7 total", lt.Consumed(a), lt.Consumed(b))
	}
	if _, ok := lt.Next(); ok {
		t.Fatal("Next emitted after Rest")
	}
}

func TestCodeTreeRest(t *testing.T) {
	ct := NewCodeTree[string]()
	a := ct.AddRun([]codes.Code{1, 4}, []string{"a1", "a4"})
	b := ct.AddRun([]codes.Code{2}, []string{"b2"})
	ct.Append(b, []codes.Code{6, 7}, []string{"b6", "b7"})
	ct.CloseRun(a)
	ct.CloseRun(b)
	if e, ok := ct.NextReady(); !ok || e != "a1" {
		t.Fatalf("first emit = %q, %v", e, ok)
	}
	elems, cs := ct.Rest()
	if !slices.Equal(cs[0], []codes.Code{4}) || !slices.Equal(elems[0], []string{"a4"}) {
		t.Fatalf("run a rest = %v / %v", cs[0], elems[0])
	}
	if !slices.Equal(cs[1], []codes.Code{2, 6, 7}) || !slices.Equal(elems[1], []string{"b2", "b6", "b7"}) {
		t.Fatalf("run b rest = %v / %v", cs[1], elems[1])
	}
	if !ct.Exhausted() {
		t.Fatal("tree not exhausted after Rest")
	}
}

// restDrain drives a streamer's Rest plus the matching parallel merge
// and compares against its serial drain, for one key type.
func restDrain[K comparable](t *testing.T, name string, cmp func(K, K) int, code func(K) uint64, r0, r1 []K) {
	t.Helper()
	feed := func(s *Streamer[K]) {
		a := s.AddRun(r0)
		b := s.AddRun(r1)
		s.CloseRun(a)
		s.CloseRun(b)
	}
	serial := NewStreamer[K](cmp, code)
	feed(serial)
	var want []K
	for {
		k, ok := serial.Next()
		if !ok {
			break
		}
		want = append(want, k)
	}
	s := NewStreamer[K](cmp, code)
	feed(s)
	elems, cs := s.Rest()
	var got []K
	if cs != nil {
		got = RunsCoded(nil, elems, cs, nil, par.New(3), nil)
	} else {
		got = RunsCoded(nil, elems, nil, cmp, par.New(3), nil)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s plane: Rest+ParMerge %v, serial drain %v", name, got, want)
	}
	if !s.Exhausted() {
		t.Fatalf("%s plane: streamer not exhausted after Rest", name)
	}
}

func TestStreamerRestAcrossPlanes(t *testing.T) {
	// Serial drain vs Rest + parallel merge must agree on every plane:
	// pure code (CodeTree aliasing), coded (CodeTree + extractor), and
	// comparator (LoserTree, nil codes from Rest).
	restDrain(t, "pure", codes.Compare, nil,
		[]codes.Code{1, 3, 3, 9}, []codes.Code{2, 3, 4})
	restDrain(t, "coded", func(a, b uint64) int { return codes.Compare(codes.Code(a), codes.Code(b)) },
		func(k uint64) uint64 { return k },
		[]uint64{1, 3, 3, 9}, []uint64{2, 3, 4})
	restDrain[int](t, "comparator", func(a, b int) int { return a - b }, nil,
		[]int{1, 3, 3, 9}, []int{2, 3, 4})
}
