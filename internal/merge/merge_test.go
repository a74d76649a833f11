package merge

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func intCmp(a, b int) int { return cmp.Compare(a, b) }

// two merges two runs: the two-run case of KWay.
func two[K any](a, b []K, cmp func(K, K) int) []K { return KWay([][]K{a, b}, cmp) }

func TestTwoBasic(t *testing.T) {
	got := two([]int{1, 3, 5}, []int{2, 4, 6}, intCmp)
	want := []int{1, 2, 3, 4, 5, 6}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTwoEmpty(t *testing.T) {
	if got := two(nil, []int{1}, intCmp); !slices.Equal(got, []int{1}) {
		t.Errorf("nil+[1] = %v", got)
	}
	if got := two([]int{1}, nil, intCmp); !slices.Equal(got, []int{1}) {
		t.Errorf("[1]+nil = %v", got)
	}
	if got := two[int](nil, nil, intCmp); len(got) != 0 {
		t.Errorf("nil+nil = %v", got)
	}
}

func TestTwoStable(t *testing.T) {
	type kv struct{ k, src int }
	a := []kv{{1, 0}, {2, 0}}
	b := []kv{{1, 1}, {2, 1}}
	got := two(a, b, func(x, y kv) int { return cmp.Compare(x.k, y.k) })
	for i := 0; i < len(got)-1; i++ {
		if got[i].k == got[i+1].k && got[i].src > got[i+1].src {
			t.Fatalf("unstable merge at %d: %v", i, got)
		}
	}
}

func TestTwoProperty(t *testing.T) {
	f := func(a, b []int16) bool {
		as := make([]int, len(a))
		for i, v := range a {
			as[i] = int(v)
		}
		bs := make([]int, len(b))
		for i, v := range b {
			bs[i] = int(v)
		}
		slices.Sort(as)
		slices.Sort(bs)
		got := two(as, bs, intCmp)
		want := append(append([]int{}, as...), bs...)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKWayEmptyInputs(t *testing.T) {
	if got := KWay[int](nil, intCmp); len(got) != 0 {
		t.Errorf("KWay(nil) = %v", got)
	}
	if got := KWay([][]int{{}, {}, {}}, intCmp); len(got) != 0 {
		t.Errorf("KWay(empties) = %v", got)
	}
	if got := KWay([][]int{{}, {4, 5}, {}}, intCmp); !slices.Equal(got, []int{4, 5}) {
		t.Errorf("KWay(one run) = %v", got)
	}
}

func TestKWaySingleRun(t *testing.T) {
	in := [][]int{{1, 2, 3}}
	got := KWay(in, intCmp)
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("got %v", got)
	}
	// Result must be a copy, not an alias.
	got[0] = 99
	if in[0][0] == 99 {
		t.Error("KWay aliased its input for the single-run case")
	}
}

func TestKWayKnown(t *testing.T) {
	runs := [][]int{
		{1, 5, 9},
		{2, 6, 10},
		{3, 7, 11},
		{4, 8, 12},
	}
	got := KWay(runs, intCmp)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestKWayDuplicatesAndUnequalLengths(t *testing.T) {
	runs := [][]int{
		{1, 1, 1, 1},
		{1},
		{},
		{0, 1, 2},
		{1, 1},
	}
	got := KWay(runs, intCmp)
	want := []int{0, 1, 1, 1, 1, 1, 1, 1, 1, 2}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestKWayStableAcrossRuns(t *testing.T) {
	type kv struct{ k, src int }
	runs := [][]kv{
		{{5, 0}, {7, 0}},
		{{5, 1}},
		{{5, 2}, {6, 2}},
	}
	got := KWay(runs, func(x, y kv) int { return cmp.Compare(x.k, y.k) })
	var srcs []int
	for _, e := range got {
		if e.k == 5 {
			srcs = append(srcs, e.src)
		}
	}
	if !slices.Equal(srcs, []int{0, 1, 2}) {
		t.Errorf("tie order %v, want [0 1 2]", srcs)
	}
}

func TestKWayProperty(t *testing.T) {
	f := func(seedRaw uint32, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(uint64(seedRaw), 1))
		k := int(kRaw%17) + 1
		runs := make([][]int, k)
		var all []int
		for i := range runs {
			n := rng.IntN(50)
			runs[i] = make([]int, n)
			for j := range runs[i] {
				runs[i][j] = rng.IntN(100)
			}
			slices.Sort(runs[i])
			all = append(all, runs[i]...)
		}
		slices.Sort(all)
		return slices.Equal(KWay(runs, intCmp), all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLoserTreeStreaming(t *testing.T) {
	runs := [][]int{{2, 4}, {1, 3}}
	lt := NewLoserTree(runs, intCmp)
	var got []int
	for {
		k, ok := lt.Next()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Errorf("got %v", got)
	}
	// Next after exhaustion stays exhausted.
	if _, ok := lt.Next(); ok {
		t.Error("Next returned ok after exhaustion")
	}
}

func TestLoserTreeManyRuns(t *testing.T) {
	// Non-power-of-two run count exercises the padded virtual leaves.
	const k = 13
	runs := make([][]int, k)
	for i := range runs {
		runs[i] = []int{i, i + k, i + 2*k}
	}
	got := KWay(runs, intCmp)
	if len(got) != 3*k {
		t.Fatalf("got %d keys, want %d", len(got), 3*k)
	}
	if !slices.IsSorted(got) {
		t.Error("output not sorted")
	}
}

func TestLoserTreeAllEmptyRuns(t *testing.T) {
	// Fixed form: every run empty from the start.
	lt := NewLoserTree([][]int{{}, {}, {}, {}, {}}, intCmp)
	if _, ok := lt.Next(); ok {
		t.Error("Next emitted from all-empty runs")
	}
	if !lt.Exhausted() {
		t.Error("all-empty fixed tree not Exhausted")
	}
	// Streaming form: runs added empty, then closed without data.
	st := NewStreaming[int](intCmp)
	for i := 0; i < 3; i++ {
		st.AddRun(nil)
	}
	if _, ok := st.NextReady(); ok {
		t.Error("NextReady emitted while all runs open and empty")
	}
	if st.Exhausted() {
		t.Error("open empty runs reported Exhausted")
	}
	for i := 0; i < 3; i++ {
		st.CloseRun(i)
	}
	if _, ok := st.NextReady(); ok {
		t.Error("NextReady emitted from closed empty runs")
	}
	if !st.Exhausted() {
		t.Error("closed empty runs not Exhausted")
	}
}

// TestLoserTreeAddRunStreaming drives the streaming API the way the
// exchange does: runs admitted up front, chunks appended out of lockstep,
// emission gated on starvation, runs closing at different times.
func TestLoserTreeAddRunStreaming(t *testing.T) {
	lt := NewStreaming[int](intCmp)
	a := lt.AddRun([]int{1, 4})
	b := lt.AddRun(nil)
	c := lt.AddRun([]int{3})
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("run indices %d %d %d", a, b, c)
	}
	// Run b is open and empty: nothing may be emitted yet.
	if _, ok := lt.NextReady(); ok {
		t.Fatal("emitted while run b starved")
	}
	lt.Append(b, []int{2})
	var got []int
	drain := func() {
		for {
			k, ok := lt.NextReady()
			if !ok {
				break
			}
			got = append(got, k)
		}
	}
	drain() // 1, 2 — then b starves again with 3, 4 still buffered
	if !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("first drain got %v", got)
	}
	lt.Append(b, []int{5, 7})
	drain() // 3 only: run c drains and, still open, starves the tree
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("second drain got %v", got)
	}
	lt.CloseRun(a)
	lt.CloseRun(c)
	drain() // 4, 5, 7 — then b starves again, still open
	if !slices.Equal(got, []int{1, 2, 3, 4, 5, 7}) {
		t.Fatalf("third drain got %v", got)
	}
	if lt.Exhausted() {
		t.Fatal("Exhausted with run b still open")
	}
	lt.Append(b, []int{9})
	lt.CloseRun(b)
	drain()
	if !slices.Equal(got, []int{1, 2, 3, 4, 5, 7, 9}) {
		t.Fatalf("final drain got %v", got)
	}
	if !lt.Exhausted() {
		t.Fatal("not Exhausted after final drain")
	}
	if lt.Consumed(b) != 4 {
		t.Errorf("Consumed(b) = %d, want 4", lt.Consumed(b))
	}
}

// TestLoserTreeStreamingNonPowerOfTwo checks tree growth across a
// non-power-of-two run count with interleaved emission and exhaustion,
// against a reference sort.
func TestLoserTreeStreamingNonPowerOfTwo(t *testing.T) {
	const k = 11 // forces leaf padding and one mid-stream tree regrowth
	rng := rand.New(rand.NewPCG(5, 6))
	chunks := make([][][]int, k)
	var all []int
	for i := range chunks {
		n := rng.IntN(40)
		keys := make([]int, n)
		for j := range keys {
			keys[j] = rng.IntN(50)
		}
		slices.Sort(keys)
		all = append(all, keys...)
		// Split each run into 1-3 chunks.
		for len(keys) > 0 {
			c := min(1+rng.IntN(20), len(keys))
			chunks[i] = append(chunks[i], keys[:c])
			keys = keys[c:]
		}
	}
	slices.Sort(all)
	lt := NewStreaming[int](intCmp)
	for i := 0; i < k; i++ {
		lt.AddRun(nil)
	}
	var got []int
	next := make([]int, k)
	for !lt.Exhausted() {
		// Feed one pending chunk to a random run, then drain.
		i := rng.IntN(k)
		for off := 0; off < k; off++ {
			r := (i + off) % k
			if next[r] < len(chunks[r]) {
				lt.Append(r, chunks[r][next[r]])
				next[r]++
				if next[r] == len(chunks[r]) {
					lt.CloseRun(r)
				}
				break
			} else if next[r] == len(chunks[r]) {
				lt.CloseRun(r) // covers zero-chunk runs; idempotent
			}
		}
		for {
			v, ok := lt.NextReady()
			if !ok {
				break
			}
			got = append(got, v)
		}
	}
	if !slices.Equal(got, all) {
		t.Fatalf("streamed merge diverged: got %d keys, want %d", len(got), len(all))
	}
}

// TestLoserTreeInterleavedExhaustion: Next keeps returning false after
// the fixed tree drains, and mid-merge run exhaustion is handled.
func TestLoserTreeInterleavedExhaustion(t *testing.T) {
	lt := NewLoserTree([][]int{{1}, {2, 3}, {}}, intCmp)
	want := []int{1, 2, 3}
	for _, w := range want {
		k, ok := lt.Next()
		if !ok || k != w {
			t.Fatalf("Next = %d,%v want %d", k, ok, w)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := lt.Next(); ok {
			t.Fatal("Next emitted after exhaustion")
		}
	}
	if !lt.Exhausted() {
		t.Error("drained fixed tree not Exhausted")
	}
}
