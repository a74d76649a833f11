package core

import (
	"math/rand/v2"

	"hssort/internal/sampling"
)

// SimResult reports one run of the protocol simulator: the round and
// sample-size behaviour of splitter determination at arbitrary scale.
type SimResult struct {
	// Rounds is the number of histogramming rounds executed.
	Rounds int
	// SamplePerRound is the overall (deduplicated) probe count per
	// round; TotalSample is the sum.
	SamplePerRound []int64
	TotalSample    int64
	// CoveragePerRound is G_j — the keys remaining inside active
	// splitter intervals — after each round (Theorem 3.3.2's quantity).
	CoveragePerRound []int64
	// Imbalance is the bucket-level load imbalance max·B/N achieved by
	// the final splitters.
	Imbalance float64
	// Finalized reports whether every splitter met its target window.
	Finalized bool
}

// SimulateSplitters runs the exact HSS splitter-determination protocol —
// Bernoulli sampling restricted to active splitter intervals, followed by
// histogramming — against an idealized input of n distinct keys, centrally.
//
// For distinct keys the protocol is distribution-free: it observes keys
// only through comparisons and ranks, so the key space can be taken to be
// 0..n-1 with rank(k) = k. This is what lets the simulator execute the
// paper's true processor counts (Table 6.1 runs p up to 32768, Fig 4.1 up
// to 256K) on one machine: no key array is materialized at all. The
// distributed implementation and the simulator share the Tracker, the
// sampling ratios, and the scanning algorithm, so round counts and sample
// sizes transfer.
//
// Options.Splitters seeds the run the way it seeds a sort (FrontHalf):
// a seed within 1+ε stands at zero rounds, any other is absorbed as
// round 0. In the identity key space a seed splitter's rank is its value.
func SimulateSplitters(n int64, opt Options[int64]) (SimResult, error) {
	if opt.Cmp == nil {
		opt.Cmp = func(a, b int64) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
	}
	// Defaults are computed as if the world had one rank per bucket.
	opt, err := opt.withDefaults(max(opt.Buckets, 1))
	if err != nil {
		return SimResult{}, err
	}
	res := SimResult{}
	if opt.Buckets == 1 || n == 0 {
		res.Finalized = true
		res.Imbalance = 1
		return res, nil
	}
	rng := rand.New(rand.NewPCG(opt.Seed, 0x6a09e667f3bcc909))
	rc := newRootController(n, opt)
	if opt.Splitters != nil {
		if imb := simImbalance(opt.Splitters, n, opt.Buckets); imb <= 1+opt.Epsilon {
			res.Finalized = true
			res.Imbalance = imb
			return res, nil
		}
		rc.seed(opt.Splitters, opt.Splitters)
	}

	for round := 1; ; round++ {
		plan := rc.plan(round)
		if plan.Done {
			res.Finalized = plan.Finalized
			res.Imbalance = simImbalance(plan.Splitters, n, opt.Buckets)
			return res, nil
		}
		// Sampling phase: Bernoulli(prob) over the index ranges the
		// active intervals cover. Interval bounds are exclusive keys
		// whose rank equals their value in the identity key space.
		var probes []int64
		for _, iv := range plan.Intervals {
			lo := int64(0)
			if iv.HasLo {
				lo = iv.Lo + 1
			}
			hi := n
			if iv.HasHi {
				hi = iv.Hi
			}
			if hi <= lo {
				continue
			}
			sampling.BernoulliIndices(int(hi-lo), plan.Prob, rng, func(i int) {
				probes = append(probes, lo+int64(i))
			})
		}
		res.Rounds = round
		res.SamplePerRound = append(res.SamplePerRound, int64(len(probes)))
		res.TotalSample += int64(len(probes))

		// Histogramming phase: exact ranks are the probe values
		// themselves.
		rc.absorb(probes, probes)
		res.CoveragePerRound = append(res.CoveragePerRound, rc.tracker.Coverage())
	}
}

// simImbalance computes the bucket-level imbalance max·B/n induced by
// splitter keys in the identity key space.
func simImbalance(splitters []int64, n int64, buckets int) float64 {
	if n == 0 {
		return 1
	}
	prev := int64(0)
	maxLoad := int64(0)
	for _, s := range splitters {
		if s-prev > maxLoad {
			maxLoad = s - prev
		}
		prev = s
	}
	if n-prev > maxLoad {
		maxLoad = n - prev
	}
	return float64(maxLoad) * float64(buckets) / float64(n)
}
