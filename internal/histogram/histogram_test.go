package histogram

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hssort/internal/codes"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func TestLocalRanksKnown(t *testing.T) {
	sorted := []int64{10, 20, 20, 30, 40}
	probes := []int64{5, 10, 20, 25, 40, 50}
	got := LocalRanks(sorted, probes, icmp)
	want := []int64{0, 0, 1, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLocalRanksEmpty(t *testing.T) {
	if got := LocalRanks([]int64{}, []int64{1, 2}, icmp); !slices.Equal(got, []int64{0, 0}) {
		t.Errorf("empty input ranks = %v", got)
	}
	if got := LocalRanks([]int64{1}, []int64{}, icmp); len(got) != 0 {
		t.Errorf("no probes: %v", got)
	}
}

func TestLocalRanksProperty(t *testing.T) {
	f := func(data []int16, probes []int16) bool {
		sorted := make([]int64, len(data))
		for i, v := range data {
			sorted[i] = int64(v)
		}
		slices.Sort(sorted)
		ps := make([]int64, len(probes))
		for i, v := range probes {
			ps[i] = int64(v)
		}
		got := LocalRanks(sorted, ps, icmp)
		for i, q := range ps {
			naive := int64(0)
			for _, k := range sorted {
				if k < q {
					naive++
				}
			}
			if got[i] != naive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// exactTracker builds a tracker over an explicit global sorted array so
// tests can feed exact ranks.
func exactRanks(global []int64, probes []int64) []int64 {
	return LocalRanks(global, probes, icmp)
}

// TestRanksSweepMatchesSearch: a sorted probe list is located by one
// forward pass that searches from each previous answer, by a unit walk,
// block skips or a gallop as the gap to the next answer grows; an
// unsorted one by a binary search per probe. Whichever runs, the answer
// is sort.Search's, on the code plane and on the comparator plane. The
// shapes span gaps n/m from under 1 to 10^4, across the regime edges at
// 2 and 128; probe lists are sorted, sorted with duplicates, unsorted
// (which must not take the forward pass to a wrong answer), bunched in
// a few tight clusters far apart, entirely below or above the local
// keys, the local keys themselves, and empty.
func TestRanksSweepMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1300))
	draw := func(n int, span uint64, base uint64) []codes.Code {
		out := make([]codes.Code, n)
		for i := range out {
			out[i] = codes.Code(base + rng.Uint64N(span))
		}
		return out
	}
	check := func(name string, sorted, probes []codes.Code) {
		t.Helper()
		want := make([]int64, len(probes))
		for i, q := range probes {
			want[i] = int64(sort.Search(len(sorted), func(j int) bool { return sorted[j] >= q }))
		}
		if got := LocalRanks(sorted, probes, codes.Compare); !slices.Equal(got, want) {
			t.Errorf("%s: code plane (n=%d, m=%d) diverged from sort.Search", name, len(sorted), len(probes))
		}
		// The comparator plane: same values under a type the code-plane
		// sniff does not recognize.
		toU := func(cs []codes.Code) []uint64 {
			out := make([]uint64, len(cs))
			for i, c := range cs {
				out[i] = uint64(c)
			}
			return out
		}
		if got := LocalRanks(toU(sorted), toU(probes), cmp.Compare[uint64]); !slices.Equal(got, want) {
			t.Errorf("%s: comparator plane (n=%d, m=%d) diverged from sort.Search", name, len(sorted), len(probes))
		}
	}
	for _, m := range []int{0, 1, 7, 100} {
		for _, gap := range []int{0, 1, 2, 3, 8, 21, 127, 128, 129, 1000, 10000} {
			n := gap * max(m, 1)
			if m == 100 && gap > 1000 {
				n = 1000 + gap*7 // a 10^4 gap over the first probes only, not 10^6 keys
			}
			sorted := draw(n, 1<<20, 1<<20)
			slices.Sort(sorted)
			inRange := draw(m, 1<<20, 1<<20)
			unsorted := slices.Clone(inRange)
			slices.Sort(inRange)
			dups := draw(m, 5, 1<<20+1<<19)
			slices.Sort(dups)
			mixed := append(append(draw(m/3, 1<<20, 0), draw(m/3, 1<<20, 1<<20)...), draw(m-2*(m/3), 1<<20, 1<<21)...)
			slices.Sort(mixed)
			var clusters []codes.Code
			for len(clusters) < m {
				clusters = append(clusters, draw(min(m-len(clusters), 1+rng.IntN(9)), 1<<7, 1<<20+rng.Uint64N(1<<20))...)
			}
			slices.Sort(clusters)
			check("sorted", sorted, inRange)
			check("unsorted", sorted, unsorted)
			check("reversed", sorted, reversed(inRange))
			check("duplicates", sorted, dups)
			check("clusters", sorted, clusters)
			check("all below", sorted, sortedCopy(draw(m, 1<<20, 0)))
			check("all above", sorted, sortedCopy(draw(m, 1<<20, 1<<21)))
			check("below, inside and above", sorted, mixed)
			check("local copy as probes", sorted, sorted)
		}
	}
}

func sortedCopy(cs []codes.Code) []codes.Code {
	slices.Sort(cs)
	return cs
}

func reversed(cs []codes.Code) []codes.Code {
	out := slices.Clone(cs)
	slices.Reverse(out)
	return out
}

func TestTrackerFinalizesWithGoodProbes(t *testing.T) {
	// Global input 0..999; 4 buckets → targets 250, 500, 750; eps=0.1
	// gives tolerance 1000*0.1/8 = 12.
	global := seq(1000)
	tr := NewTracker[int64](1000, 4, 0.1, icmp)
	if tr.Tolerance() != 12 {
		t.Fatalf("tolerance = %d, want 12", tr.Tolerance())
	}
	probes := []int64{249, 505, 744}
	tr.Update(probes, exactRanks(global, probes))
	if !tr.Done() {
		t.Fatalf("not done: %d splitters, coverage %d", tr.NumSplitters(), tr.Coverage())
	}
	sp, ok := tr.Splitters()
	if !ok {
		t.Fatal("no splitters")
	}
	if !slices.Equal(sp, probes) {
		t.Errorf("splitters %v, want %v", sp, probes)
	}
}

func TestTrackerBoundsTightenMonotonically(t *testing.T) {
	global := seq(10000)
	tr := NewTracker[int64](10000, 2, 0.001, icmp) // single splitter, target 5000, tol 2
	prevCoverage := tr.Coverage()
	if prevCoverage != 10000 {
		t.Fatalf("initial coverage %d", prevCoverage)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 30 && !tr.Done(); round++ {
		ivs := tr.ActiveIntervals()
		if len(ivs) != 1 {
			t.Fatalf("round %d: %d active intervals", round, len(ivs))
		}
		iv := ivs[0]
		// Probe a random key inside the active interval.
		lo, hi := iv.LoRank, iv.HiRank
		probe := global[lo+rng.Int64N(hi-lo)]
		if !iv.Contains(probe, icmp) && (!iv.HasLo || probe != iv.Lo) {
			// probes at the exclusive boundary are allowed to be skipped
			continue
		}
		tr.Update([]int64{probe}, exactRanks(global, []int64{probe}))
		cov := tr.Coverage()
		if cov > prevCoverage {
			t.Fatalf("coverage grew: %d -> %d", prevCoverage, cov)
		}
		prevCoverage = cov
	}
	if !tr.Done() {
		t.Fatal("random bisection never finalized the splitter")
	}
}

func TestTrackerIntervalDedup(t *testing.T) {
	// With no probe between adjacent targets, neighbouring splitters
	// share one interval and ActiveIntervals must collapse them.
	tr := NewTracker[int64](1000, 10, 0.0001, icmp)
	probes := []int64{500}
	tr.Update(probes, []int64{500})
	ivs := tr.ActiveIntervals()
	// Splitters 1..4 share (nil, 500), splitter 5 is target 500 (may
	// finalize depending on tol=0), splitters 6..9 share (500, nil).
	if len(ivs) > 3 {
		t.Errorf("got %d intervals, want <= 3 after dedup: %+v", len(ivs), ivs)
	}
}

func TestTrackerSplittersFallback(t *testing.T) {
	tr := NewTracker[int64](100, 4, 0.001, icmp)
	probes := []int64{10, 90}
	tr.Update(probes, []int64{10, 90})
	if tr.Done() {
		t.Error("tracker claimed done with probes far from every target")
	}
	// Candidates exist for all three splitters even though none finalized
	// (ok reports candidate existence, not finalization): 10 is closest
	// to target 25; either probe for 50; 90 for 75.
	sp, ok := tr.Splitters()
	if !ok {
		t.Fatal("candidates missing despite probes covering the range")
	}
	if sp[0] != 10 || sp[2] != 90 {
		t.Errorf("fallback splitters %v", sp)
	}
}

func TestTrackerPanicsOnUnsortedProbes(t *testing.T) {
	tr := NewTracker[int64](100, 2, 0.1, icmp)
	defer func() {
		if recover() == nil {
			t.Error("no panic for unsorted probes")
		}
	}()
	tr.Update([]int64{5, 3}, []int64{5, 3})
}

func TestTrackerPanicsOnLengthMismatch(t *testing.T) {
	tr := NewTracker[int64](100, 2, 0.1, icmp)
	defer func() {
		if recover() == nil {
			t.Error("no panic for length mismatch")
		}
	}()
	tr.Update([]int64{5}, []int64{})
}

func TestNewTrackerPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for buckets=0")
		}
	}()
	NewTracker[int64](100, 0, 0.1, icmp)
}

func TestTrackerSingleBucket(t *testing.T) {
	tr := NewTracker[int64](100, 1, 0.1, icmp)
	if !tr.Done() {
		t.Error("zero splitters should be trivially done")
	}
	if sp, ok := tr.Splitters(); !ok || len(sp) != 0 {
		t.Error("single bucket should yield empty splitters")
	}
}

// TestTrackerConvergesProperty: feeding exact ranks of random probes drawn
// from active intervals must finalize all splitters, and the resulting
// candidate ranks must lie within tolerance.
func TestTrackerConvergesProperty(t *testing.T) {
	f := func(seed uint32, bRaw uint8) bool {
		buckets := int(bRaw%16) + 2
		n := int64(5000)
		global := seq(int(n))
		tr := NewTracker[int64](n, buckets, 0.05, icmp)
		rng := rand.New(rand.NewPCG(uint64(seed), 3))
		for round := 0; round < 64 && !tr.Done(); round++ {
			var probes []int64
			for _, iv := range tr.ActiveIntervals() {
				lo, hi := iv.LoRank, iv.HiRank
				if hi <= lo {
					continue
				}
				probes = append(probes, global[lo+rng.Int64N(hi-lo)])
			}
			probes = dedupSorted(probes)
			if len(probes) == 0 {
				continue
			}
			tr.Update(probes, exactRanks(global, probes))
		}
		if !tr.Done() {
			return false
		}
		for i := 0; i < tr.NumSplitters(); i++ {
			r, ok := tr.CandidateRank(i)
			if !ok || absDiff(r, tr.Target(i)) > tr.Tolerance() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func dedupSorted(v []int64) []int64 {
	slices.Sort(v)
	return slices.Compact(v)
}
