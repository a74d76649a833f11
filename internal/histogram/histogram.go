package histogram

import (
	"fmt"
	"slices"
	"sort"

	"hssort/internal/codes"
)

// LocalRanks returns, for each probe, the number of keys in the local
// sorted input that compare strictly less than the probe — the local
// histogram of §2.3. probes need not be sorted, but a sorted list (every
// histogramming round broadcasts a sorted, deduplicated one) is located
// in one forward pass, each probe's search starting from the previous
// answer: O(M log(N/(pM))) comparisons where a binary search per probe,
// as §5.1.2 prices it, takes O(M log(N/p)). Sortedness is checked in
// O(M) first; an unsorted list takes a binary search per probe.
//
// When a pipeline runs on the code plane, sorted and probes arrive as
// code arrays and the search runs on raw uint64 comparisons
// (codes.Ranks) — no comparator call per step. The sniff is sound by
// the codes.Code invariant: code slices exist only in natural order-
// correspondence with their comparator.
func LocalRanks[K any](sorted []K, probes []K, cmp func(K, K) int) []int64 {
	if cs, ok := any(sorted).([]codes.Code); ok {
		return codes.Ranks(cs, any(probes).([]codes.Code))
	}
	out := make([]int64, len(probes))
	n, pos, step := len(sorted), 0, max(1, len(sorted)/max(1, len(probes)))
	warm := slices.IsSortedFunc(probes, cmp)
	for i, q := range probes {
		if !warm { // an unsorted list: one cold sort.Search per probe
			pos, step = 0, n+1
		}
		pos = codes.SearchFrom(n, pos, step, func(j int) bool { return cmp(sorted[j], q) >= 0 })
		out[i] = int64(pos)
	}
	return out
}

// Interval is one splitter interval I_j(i) = (Lo, Hi): the open key range
// still containing the splitter. Missing bounds (start of the algorithm)
// are expressed with HasLo/HasHi so the key type needs no sentinels.
type Interval[K any] struct {
	// Lo is the exclusive lower-bound key; valid only if HasLo.
	Lo    K
	HasLo bool
	// Hi is the exclusive upper-bound key; valid only if HasHi.
	Hi    K
	HasHi bool
	// LoRank and HiRank are the global ranks of Lo and Hi (0 and N when
	// the bounds are absent): the rank window U_j(i)-L_j(i) of §3.3.
	LoRank, HiRank int64
}

// Width returns the number of keys still inside the interval's rank
// window.
func (iv Interval[K]) Width() int64 { return iv.HiRank - iv.LoRank }

// Contains reports whether key k lies strictly inside the interval.
func (iv Interval[K]) Contains(k K, cmp func(K, K) int) bool {
	if iv.HasLo && cmp(k, iv.Lo) <= 0 {
		return false
	}
	if iv.HasHi && cmp(k, iv.Hi) >= 0 {
		return false
	}
	return true
}

// Tracker is the central processor's splitter state across histogramming
// rounds. Targets are the ideal splitter ranks N·i/B for B buckets;
// splitter i is finalized once a probe's global rank lands in
// T_i = [N·i/B − Nε/(2B), N·i/B + Nε/(2B)] (§2.1).
//
// The tracker is agnostic to where ranks come from: the distributed
// reduction (internal/core), the protocol simulator, or the approximate
// oracle (§3.4) all feed the same Update.
type Tracker[K any] struct {
	n       int64
	buckets int
	eps     float64
	cmp     func(K, K) int

	targets []int64 // ideal rank of splitter i
	tol     int64   // Nε/(2B)

	loKey, hiKey   []K
	hasLo, hasHi   []bool
	loRank, hiRank []int64

	finalized []bool
	candidate []K // best key seen for splitter i
	candRank  []int64
	hasCand   []bool

	rounds int
}

// NewTracker creates splitter state for partitioning n keys into buckets
// buckets with imbalance threshold eps. It panics if buckets < 1 or n < 0.
func NewTracker[K any](n int64, buckets int, eps float64, cmp func(K, K) int) *Tracker[K] {
	if buckets < 1 {
		panic(fmt.Sprintf("histogram: buckets %d < 1", buckets))
	}
	if n < 0 {
		panic(fmt.Sprintf("histogram: n %d < 0", n))
	}
	s := buckets - 1
	t := &Tracker[K]{
		n:         n,
		buckets:   buckets,
		eps:       eps,
		cmp:       cmp,
		targets:   make([]int64, s),
		tol:       int64(eps * float64(n) / (2 * float64(buckets))),
		loKey:     make([]K, s),
		hiKey:     make([]K, s),
		hasLo:     make([]bool, s),
		hasHi:     make([]bool, s),
		loRank:    make([]int64, s),
		hiRank:    make([]int64, s),
		finalized: make([]bool, s),
		candidate: make([]K, s),
		candRank:  make([]int64, s),
		hasCand:   make([]bool, s),
	}
	for i := 0; i < s; i++ {
		t.targets[i] = n * int64(i+1) / int64(buckets)
		t.hiRank[i] = n
	}
	return t
}

// NumSplitters returns buckets-1.
func (t *Tracker[K]) NumSplitters() int { return len(t.targets) }

// Rounds returns how many Update calls (histogramming rounds) have been
// applied.
func (t *Tracker[K]) Rounds() int { return t.rounds }

// Tolerance returns the half-width Nε/(2B) of the target windows.
func (t *Tracker[K]) Tolerance() int64 { return t.tol }

// Target returns the ideal rank of splitter i.
func (t *Tracker[K]) Target(i int) int64 { return t.targets[i] }

// Update folds one round's histogram into the splitter bounds. probes must
// be sorted ascending and distinct; ranks[i] is the global rank (count of
// keys strictly less) of probes[i]. Update panics on unsorted probes in
// order to surface protocol bugs early.
func (t *Tracker[K]) Update(probes []K, ranks []int64) {
	t.rounds++
	if len(probes) != len(ranks) {
		panic(fmt.Sprintf("histogram: %d probes vs %d ranks", len(probes), len(ranks)))
	}
	for i := 1; i < len(probes); i++ {
		if t.cmp(probes[i-1], probes[i]) >= 0 {
			panic("histogram: probes not sorted/distinct")
		}
	}
	for i := range t.targets {
		if t.finalized[i] {
			continue
		}
		target := t.targets[i]
		// idx = first probe with rank >= target. Since probes are in key
		// order, ranks are non-decreasing; the two probes bracketing idx
		// are the best available bounds for this splitter.
		idx := sort.Search(len(ranks), func(j int) bool { return ranks[j] >= target })
		if idx < len(probes) {
			t.observe(i, probes[idx], ranks[idx])
		}
		if idx-1 >= 0 {
			t.observe(i, probes[idx-1], ranks[idx-1])
		}
	}
}

// observe folds a single (key, global rank) observation into splitter i's
// state.
func (t *Tracker[K]) observe(i int, key K, rank int64) {
	target := t.targets[i]
	diff := rank - target
	if diff < 0 {
		diff = -diff
	}
	if !t.hasCand[i] || diff < absDiff(t.candRank[i], target) {
		t.candidate[i], t.candRank[i], t.hasCand[i] = key, rank, true
	}
	if diff <= t.tol {
		t.finalized[i] = true
		return
	}
	if rank < target {
		if !t.hasLo[i] || rank > t.loRank[i] {
			t.loKey[i], t.loRank[i], t.hasLo[i] = key, rank, true
		}
	} else {
		if !t.hasHi[i] || rank < t.hiRank[i] {
			t.hiKey[i], t.hiRank[i], t.hasHi[i] = key, rank, true
		}
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Done reports whether every splitter is finalized.
func (t *Tracker[K]) Done() bool {
	for _, f := range t.finalized {
		if !f {
			return false
		}
	}
	return true
}

// ActiveIntervals returns the splitter intervals of all unfinalized
// splitters, deduplicated: as §3.3 observes, two splitter intervals are
// either disjoint or identical, so consecutive duplicates collapse.
// Sampling in the next round is restricted to these intervals.
func (t *Tracker[K]) ActiveIntervals() []Interval[K] {
	var out []Interval[K]
	for i := range t.targets {
		if t.finalized[i] {
			continue
		}
		iv := Interval[K]{
			Lo: t.loKey[i], HasLo: t.hasLo[i], LoRank: t.loRank[i],
			Hi: t.hiKey[i], HasHi: t.hasHi[i], HiRank: t.hiRank[i],
		}
		if len(out) > 0 && sameInterval(out[len(out)-1], iv, t.cmp) {
			continue
		}
		out = append(out, iv)
	}
	return out
}

// sameInterval reports whether two intervals have identical bounds.
func sameInterval[K any](a, b Interval[K], cmp func(K, K) int) bool {
	if a.HasLo != b.HasLo || a.HasHi != b.HasHi {
		return false
	}
	if a.HasLo && cmp(a.Lo, b.Lo) != 0 {
		return false
	}
	if a.HasHi && cmp(a.Hi, b.Hi) != 0 {
		return false
	}
	return true
}

// Coverage returns G_j: the total rank width of the active intervals —
// the number of input keys the next sampling round draws from (§3.3).
func (t *Tracker[K]) Coverage() int64 {
	var g int64
	for _, iv := range t.ActiveIntervals() {
		g += iv.Width()
	}
	return g
}

// Splitters returns the buckets-1 splitter keys: each splitter's candidate
// key (the key ranked closest to its target among all keys seen, §3.3
// step 5). ok is false if some splitter never saw any probe — the caller
// should then run another round rather than partition blind.
func (t *Tracker[K]) Splitters() (keys []K, ok bool) {
	keys = make([]K, len(t.targets))
	ok = true
	for i := range t.targets {
		if !t.hasCand[i] {
			ok = false
			continue
		}
		keys[i] = t.candidate[i]
	}
	return keys, ok
}

// Finalized reports whether splitter i is finalized.
func (t *Tracker[K]) Finalized(i int) bool { return t.finalized[i] }

// CandidateRank returns the global rank of splitter i's current candidate
// key (valid only if a candidate exists).
func (t *Tracker[K]) CandidateRank(i int) (int64, bool) {
	return t.candRank[i], t.hasCand[i]
}
