package core

import (
	"math/rand/v2"
	"slices"

	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/merge"
	"hssort/internal/sampling"
)

// SplitterInfo reports the splitter-determination protocol's behaviour:
// the quantities Table 6.1 and Fig 4.1 measure.
type SplitterInfo struct {
	// Rounds is the number of histogramming rounds executed.
	Rounds int
	// SamplePerRound is the overall (deduplicated) probe count of each
	// round; TotalSample is the sum over rounds.
	SamplePerRound []int64
	TotalSample    int64
	// CoveragePerRound is G_j, the keys still inside active splitter
	// intervals, after each round (Theorem 3.3.2's quantity); nil for a
	// strategy without intervals.
	CoveragePerRound []int64
	// Finalized reports whether every splitter met its target window
	// (false means the round-cap/stagnation fallback to best candidates
	// fired — e.g. on mass-duplicate inputs without tagging).
	Finalized bool
}

// HSS's layout of the strategy's tags.
const (
	tagPlan   = TagStrategy + iota // round plan broadcast
	tagSample                      // sample gather
	tagProbes                      // probe broadcast
	tagRanks                       // histogram reduction
)

// roundPlan is the per-round broadcast from the central processor: either
// the sampling instructions for the next round or the final splitters.
type roundPlan[K any] struct {
	Done      bool
	Finalized bool                    // valid when Done: all splitters met their windows
	Prob      float64                 // per-key sampling probability
	Intervals []histogram.Interval[K] // active splitter intervals to sample from
	Splitters []K                     // final splitters (Done only)
	Coverage  []int64                 // G_j after each round (Done only)
}

// planBytes estimates the wire size of a plan: two keys + two ranks per
// interval, one key per splitter, 8 bytes per round's coverage, plus the
// fixed header.
func planBytes[K any](p roundPlan[K]) int64 {
	keySize := comm.SizeOf[K]()
	return 16 + int64(len(p.Intervals))*(2*keySize+16) + int64(len(p.Splitters))*keySize + 8*int64(len(p.Coverage))
}

// sampleIntervals draws a Bernoulli(prob) sample from the local sorted
// keys restricted to the active splitter intervals (§3.3 step 4). The
// result is sorted because intervals and in-interval indices are visited
// in order.
func sampleIntervals[K any](local []K, ivs []histogram.Interval[K], prob float64, cmp func(K, K) int, rng *rand.Rand) []K {
	var out []K
	spans := intervalSpans(local, ivs, cmp)
	for i := range ivs {
		lo, hi := spans[2*i], spans[2*i+1]
		if hi <= lo {
			continue
		}
		sampling.BernoulliIndices(hi-lo, prob, rng, func(j int) {
			out = append(out, local[lo+j])
		})
	}
	return out
}

// intervalSpans locates every interval in the local sorted keys:
// spans[2i] is the first index strictly above interval i's exclusive
// lower bound and spans[2i+1] the first index at or above its exclusive
// upper bound. The intervals ascend, so each search starts from the
// previous answer. On the code plane the present bounds become one
// non-decreasing lower-bound probe list (the key above Lo is Lo+1)
// answered by codes.Ranks; the comparator plane gallops bound by bound
// (codes.SearchFrom).
func intervalSpans[K any](local []K, ivs []histogram.Interval[K], cmp func(K, K) int) []int {
	spans := make([]int, 2*len(ivs))
	cs, ok := any(local).([]codes.Code)
	if !ok {
		n, pos, step := len(local), 0, max(1, len(local)/max(1, len(spans)))
		for i, iv := range ivs {
			lo, hi := 0, n
			if iv.HasLo {
				lo = codes.SearchFrom(n, pos, step, func(j int) bool { return cmp(local[j], iv.Lo) > 0 })
			}
			if iv.HasHi {
				hi = codes.SearchFrom(n, lo, step, func(j int) bool { return cmp(local[j], iv.Hi) >= 0 })
			}
			spans[2*i], spans[2*i+1], pos = lo, hi, max(pos, hi)
		}
		return spans
	}
	const top = ^codes.Code(0) // nothing lies above it: Lo+1 would wrap
	civs := any(ivs).([]histogram.Interval[codes.Code])
	probes := make([]codes.Code, 0, len(spans))
	for _, iv := range civs {
		if iv.HasLo && iv.Lo != top {
			probes = append(probes, iv.Lo+1)
		}
		if iv.HasHi {
			probes = append(probes, iv.Hi)
		}
	}
	ranks := codes.Ranks(cs, probes)
	for i, iv := range civs {
		lo, hi := 0, len(cs)
		switch {
		case iv.HasLo && iv.Lo == top:
			lo = len(cs)
		case iv.HasLo:
			lo, ranks = int(ranks[0]), ranks[1:]
		}
		if iv.HasHi {
			hi, ranks = int(ranks[0]), ranks[1:]
		}
		spans[2*i], spans[2*i+1] = lo, hi
	}
	return spans
}

// rootController is the central processor's per-sort state machine. It
// exists only on the root rank.
type rootController[K any] struct {
	opt     Options[K]
	n       int64
	tracker *histogram.Tracker[K]
	ratios  []float64 // Theoretical schedule; nil otherwise

	prevCoverage int64
	stagnant     int

	scanSplitters []K // OneRoundScanning result once available
	scanAttempts  int
	scanProb      float64
}

func newRootController[K any](n int64, opt Options[K]) *rootController[K] {
	rc := &rootController[K]{
		opt:          opt,
		n:            n,
		tracker:      histogram.NewTracker[K](n, opt.Buckets, opt.Epsilon, opt.Cmp),
		prevCoverage: -1,
	}
	if opt.Schedule == Theoretical {
		rc.ratios = sampling.RatioSchedule(opt.Buckets, opt.Epsilon, opt.Rounds)
	}
	if opt.Schedule == OneRoundScanning {
		rc.scanProb = float64(opt.Buckets) * sampling.ScanningRatio(opt.Epsilon) / float64(n)
	}
	return rc
}

// plan decides round `round` (1-based): either the Done plan carrying the
// final splitters, or the sampling instructions for the next round.
func (rc *rootController[K]) plan(round int) roundPlan[K] {
	if rc.scanSplitters != nil {
		return roundPlan[K]{Done: true, Finalized: true, Splitters: rc.scanSplitters}
	}
	finish := func(finalized bool) (roundPlan[K], bool) {
		sp, ok := rc.tracker.Splitters()
		if !ok {
			return roundPlan[K]{}, false
		}
		// Candidate ranks track sorted targets, but the round-cap /
		// stagnation fallback can pick candidates whose keys invert
		// between adjacent targets. Sorting once here — splitter
		// determination time — is what lets exchange.Partition skip its
		// per-call O(B) validation on every rank.
		slices.SortFunc(sp, rc.opt.Cmp)
		return roundPlan[K]{Done: true, Finalized: finalized, Splitters: sp}, true
	}
	switch {
	case rc.tracker.Done():
		if p, ok := finish(true); ok {
			return p
		}
	case round > rc.opt.maxRounds || rc.stagnant >= 3:
		// Fall back to the closest candidates seen; if some splitter
		// has never seen a probe, keep sampling (boosted) instead.
		if p, ok := finish(false); ok {
			return p
		}
	case rc.opt.Schedule == Theoretical && round > rc.opt.Rounds:
		// Lemma 3.3.1: after k rounds all splitters are finalized
		// w.h.p.; in the unlucky tail, finish from candidates.
		if p, ok := finish(rc.tracker.Done()); ok {
			return p
		}
	}

	ivs := rc.tracker.ActiveIntervals()
	var prob float64
	switch rc.opt.Schedule {
	case OneRoundScanning:
		// Retry with doubled density if the sample was too sparse for
		// the scanning algorithm (needs >= B-1 keys).
		prob = rc.scanProb * float64(int64(1)<<min(rc.scanAttempts, 30))
		rc.scanAttempts++
	case Theoretical:
		idx := min(round, len(rc.ratios)) - 1
		prob = float64(rc.opt.Buckets) * rc.ratios[idx] / float64(rc.n)
	default: // FixedOversampling
		coverage := rc.tracker.Coverage()
		if coverage < 1 {
			coverage = 1
		}
		prob = oversampleFactor * float64(rc.opt.Buckets) / float64(coverage)
	}
	if prob > 1 {
		prob = 1
	}
	return roundPlan[K]{Prob: prob, Intervals: ivs}
}

// absorb folds one round's global histogram into the controller state.
func (rc *rootController[K]) absorb(probes []K, ranks []int64) {
	if rc.opt.Schedule == OneRoundScanning && len(probes) >= rc.opt.Buckets-1 {
		if res, err := histogram.Scan(probes, ranks, rc.n, rc.opt.Buckets, rc.opt.Epsilon, rc.opt.Cmp); err == nil {
			rc.scanSplitters = res.Splitters
		}
	}
	// The tracker runs in every schedule so a fallback path always
	// exists (and OneRoundScanning gets candidates if Scan keeps
	// failing on pathological inputs).
	rc.tracker.Update(probes, ranks)
	cov := rc.tracker.Coverage()
	if cov == rc.prevCoverage {
		rc.stagnant++
	} else {
		rc.stagnant = 0
	}
	rc.prevCoverage = cov
}

// seed folds a rejected seed's histogram in as round 0, before round 1 is
// planned: splitters a seed probe already pins inside its window are
// finalized and sampling starts from the intervals the rest leave open,
// instead of from the whole key range. Plans from duplicate-heavy inputs
// carry equal adjacent splitters (with equal ranks: the bucket between
// them is empty), which Tracker.Update rejects, so they are compacted
// first. The scanning schedule picks its splitters from one sample of the
// whole range and so cannot resume from a seed; it runs cold.
func (rc *rootController[K]) seed(probes []K, ranks []int64) {
	if rc.opt.Schedule == OneRoundScanning {
		return
	}
	ps, rs := make([]K, 0, len(probes)), make([]int64, 0, len(ranks))
	for i, p := range probes {
		if i == 0 || rc.opt.Cmp(probes[i-1], p) != 0 {
			ps, rs = append(ps, p), append(rs, ranks[i])
		}
	}
	rc.absorb(ps, rs)
}

// DetermineSplitters runs the splitter-determination protocol over c's
// ranks (the world, or a row group at level 2), each holding sortedLocal
// (already locally sorted), with n total keys. It returns the Buckets-1
// splitters on every rank. Defaults are applied to opt internally. When
// FrontHalf hands over a rejected seed's round 0, the root absorbs it
// before planning round 1 — no message is added, and Rounds counts the
// sampling rounds only. The root's coverage after each round reaches
// every rank on the Done plan.
func DetermineSplitters[K any](c comm.Endpoint, sortedLocal []K, n int64, opt Options[K]) ([]K, SplitterInfo, error) {
	opt, err := opt.withDefaults(c.Size())
	if err != nil {
		return nil, SplitterInfo{}, err
	}
	if opt.Buckets == 1 || n == 0 {
		return []K{}, SplitterInfo{Finalized: true}, nil
	}
	root := 0
	me := c.Rank()
	rng := rand.New(rand.NewPCG(opt.Seed, 0xda3e39cb94b95bdb^uint64(me)))

	var rc *rootController[K]
	var coverage []int64
	if me == root {
		rc = newRootController(n, opt)
		if opt.round0 != nil {
			rc.seed(opt.Splitters, opt.round0)
		}
	}

	info := SplitterInfo{}
	for round := 1; ; round++ {
		var plan roundPlan[K]
		if me == root {
			if plan = rc.plan(round); plan.Done {
				plan.Coverage = coverage
			}
		}
		plan, err := collective.BcastSized(c, root, tagPlan, plan, planBytes[K])
		if err != nil {
			return nil, info, err
		}
		if plan.Done {
			info.Finalized, info.CoveragePerRound = plan.Finalized, plan.Coverage
			// The one-time validation that lets exchange.Partition skip
			// its per-call O(B) re-check.
			exchange.ValidateSplitters(plan.Splitters, opt.Cmp)
			return plan.Splitters, info, nil
		}

		// Sampling phase (§3.3 step 4).
		sample := sampleIntervals(sortedLocal, plan.Intervals, plan.Prob, opt.Cmp, rng)
		parts, err := collective.Gatherv(c, root, tagSample, sample)
		if err != nil {
			return nil, info, err
		}
		var probes []K
		if me == root {
			// One sorted, deduplicated probe list (O(S log p), §5.1.1).
			probes = slices.CompactFunc(merge.KWay(parts, opt.Cmp), func(a, b K) bool { return opt.Cmp(a, b) == 0 })
		}

		// Histogramming phase (§3.3 steps 1-3).
		probes, err = collective.Bcast(c, root, tagProbes, probes)
		if err != nil {
			return nil, info, err
		}
		info.Rounds = round
		info.SamplePerRound = append(info.SamplePerRound, int64(len(probes)))
		info.TotalSample += int64(len(probes))

		global, err := collective.Reduce(c, root, tagRanks, histogram.LocalRanks(sortedLocal, probes, opt.Cmp), collective.SumInt64)
		if err != nil {
			return nil, info, err
		}
		if me == root {
			rc.absorb(probes, global)
			coverage = append(coverage, rc.tracker.Coverage())
		}
	}
}
