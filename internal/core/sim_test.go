package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func simOpt(buckets int, eps float64, sched Schedule) Options[int64] {
	return Options[int64]{Cmp: icmp, Buckets: buckets, Epsilon: eps, Schedule: sched, Seed: 1}
}

func TestSimulateFixedOversamplingBasic(t *testing.T) {
	res, err := SimulateSplitters(1<<20, simOpt(64, 0.05, FixedOversampling))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finalized {
		t.Error("not finalized")
	}
	if res.Imbalance > 1.05+1e-9 {
		t.Errorf("imbalance %.4f", res.Imbalance)
	}
	if res.Rounds < 2 || res.Rounds > 12 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	// Each round's sample should be ~5·B (dedup can shave a little).
	for j, s := range res.SamplePerRound {
		if s > 5*64*3 {
			t.Errorf("round %d sample %d far above 5B", j, s)
		}
	}
}

func TestSimulateCoverageShrinks(t *testing.T) {
	// Theorem 3.3.1/3.3.2: G_j decreases geometrically.
	res, err := SimulateSplitters(1<<22, simOpt(256, 0.02, FixedOversampling))
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(res.CoveragePerRound); j++ {
		if res.CoveragePerRound[j] > res.CoveragePerRound[j-1] {
			t.Errorf("coverage grew at round %d: %v", j, res.CoveragePerRound)
		}
	}
	if last := res.CoveragePerRound[len(res.CoveragePerRound)-1]; last >= res.CoveragePerRound[0]/4 {
		t.Errorf("coverage barely shrank: %v", res.CoveragePerRound)
	}
}

func TestSimulateTable61Shape(t *testing.T) {
	// Table 6.1: p = 4K..32K, f = 5, eps = 0.02 → observed 4 rounds,
	// bound 8. We assert rounds ≤ 8 (the paper's bound) and ≥ 2, and
	// that the per-round sample stays ~5p.
	if testing.Short() {
		t.Skip("large-p simulation")
	}
	for _, p := range []int{4096, 8192} {
		res, err := SimulateSplitters(int64(p)*1000, simOpt(p, 0.02, FixedOversampling))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Finalized {
			t.Errorf("p=%d: not finalized", p)
		}
		if res.Rounds < 2 || res.Rounds > 8 {
			t.Errorf("p=%d: %d rounds, paper observes 4 with bound 8", p, res.Rounds)
		}
		if res.Imbalance > 1.02+1e-9 {
			t.Errorf("p=%d: imbalance %.4f", p, res.Imbalance)
		}
	}
}

func TestSimulateTheoreticalSchedule(t *testing.T) {
	// k-round schedule: finishes in at most k rounds (w.h.p. exactly k)
	// and achieves the target balance.
	for _, k := range []int{1, 2, 3} {
		opt := simOpt(128, 0.05, Theoretical)
		opt.Rounds = k
		res, err := SimulateSplitters(1<<21, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds > k+1 {
			t.Errorf("k=%d: took %d rounds", k, res.Rounds)
		}
		if res.Imbalance > 1.05+1e-9 {
			t.Errorf("k=%d: imbalance %.4f", k, res.Imbalance)
		}
	}
}

func TestSimulateOneRoundScanning(t *testing.T) {
	res, err := SimulateSplitters(1<<20, simOpt(64, 0.1, OneRoundScanning))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("scanning took %d rounds", res.Rounds)
	}
	// Theorem 3.2.1: only the last bucket can exceed N/B, and it stays
	// under N(1+ε)/B w.h.p.
	if res.Imbalance > 1.1+1e-9 {
		t.Errorf("imbalance %.4f", res.Imbalance)
	}
}

func TestSimulateSampleSizesOrdering(t *testing.T) {
	// Fig 4.1's measured claim: total sample for 2 theoretical rounds <
	// 1 round; constant oversampling (auto-k) < 2 rounds, for large p.
	n := int64(1 << 24)
	buckets := 4096
	one := simOpt(buckets, 0.05, Theoretical)
	one.Rounds = 1
	two := simOpt(buckets, 0.05, Theoretical)
	two.Rounds = 2
	autoK := simOpt(buckets, 0.05, FixedOversampling)
	r1, err := SimulateSplitters(n, one)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateSplitters(n, two)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := SimulateSplitters(n, autoK)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TotalSample >= r1.TotalSample {
		t.Errorf("2-round sample %d not below 1-round %d", r2.TotalSample, r1.TotalSample)
	}
	if rk.TotalSample >= r2.TotalSample {
		t.Errorf("constant-oversampling sample %d not below 2-round %d", rk.TotalSample, r2.TotalSample)
	}
}

func TestSimulateDegenerate(t *testing.T) {
	res, err := SimulateSplitters(0, simOpt(8, 0.05, FixedOversampling))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finalized || res.Rounds != 0 {
		t.Errorf("n=0: %+v", res)
	}
	res, err = SimulateSplitters(100, simOpt(1, 0.05, FixedOversampling))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finalized {
		t.Errorf("B=1: %+v", res)
	}
}

// TestSimulateProperty: across random scales, the protocol always
// finalizes within the round cap and achieves the requested balance.
func TestSimulateProperty(t *testing.T) {
	f := func(seed uint32, bRaw uint8, sched uint8) bool {
		buckets := int(bRaw%120) + 8
		n := int64(buckets) * int64(seed%1000+200)
		opt := simOpt(buckets, 0.1, Schedule(sched%3))
		opt.Seed = uint64(seed) + 1
		res, err := SimulateSplitters(n, opt)
		if err != nil {
			t.Log(err)
			return false
		}
		// On tiny inputs the w.h.p. guarantee can miss; allow fallback
		// but require termination (well under the default round cap
		// of 4·bound+8) and sane imbalance.
		return res.Rounds <= 60 && res.Imbalance <= 2.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// driftedSeed builds a seed for n keys in buckets buckets whose every
// splitter sits off its ideal rank n·i/B by a uniform draw from
// ±1.5·delta·n/B: the splitters of an earlier sort whose distribution has
// since moved by about delta of a bucket. In the simulator's identity key
// space a splitter's value is its rank.
func driftedSeed(n int64, buckets int, delta float64, rng *rand.Rand) []int64 {
	seed := make([]int64, buckets-1)
	spread := 1.5 * delta * float64(n) / float64(buckets)
	for i := range seed {
		off := int64((2*rng.Float64() - 1) * spread)
		seed[i] = min(max(n*int64(i+1)/int64(buckets)+off, 0), n)
	}
	slices.Sort(seed)
	return seed
}

// TestSimulateDriftMatrix is ROADMAP item 3's measurement: what a seed
// that is off by δ of a bucket costs against a cold start, per bucket
// count. A perfect seed costs nothing; a near one strictly less than cold
// in rounds and in sample; a useless one never more than half a round or
// a tenth of the sample above cold; and every cell meets 1+ε.
func TestSimulateDriftMatrix(t *testing.T) {
	const eps, perBucket, seeds = 0.05, 2000, 20
	for _, buckets := range []int{4, 256, 4096} {
		n := int64(buckets) * perBucket
		type cell struct{ rounds, sample, worst float64 }
		run := func(delta float64) cell {
			var c cell
			for s := uint64(1); s <= seeds; s++ {
				opt := simOpt(buckets, eps, FixedOversampling)
				opt.Seed = s
				if delta >= 0 {
					opt.Splitters = driftedSeed(n, buckets, delta, rand.New(rand.NewPCG(s, uint64(buckets))))
				}
				res, err := SimulateSplitters(n, opt)
				if err != nil {
					t.Fatal(err)
				}
				c.rounds += float64(res.Rounds) / seeds
				c.sample += float64(res.TotalSample) / seeds
				c.worst = max(c.worst, res.Imbalance)
			}
			return c
		}
		cold := run(-1)
		t.Logf("B=%-5d cold      rounds %.2f sample %8.0f worst %.4f", buckets, cold.rounds, cold.sample, cold.worst)
		for _, delta := range []float64{0, 0.02, 0.05, 0.2, 1, 5} {
			got := run(delta)
			t.Logf("B=%-5d δ=%-6v rounds %.2f sample %8.0f worst %.4f", buckets, delta, got.rounds, got.sample, got.worst)
			if delta == 0 && (got.rounds != 0 || got.sample != 0) {
				t.Errorf("B=%d: a perfect seed cost %.2f rounds, %.0f sample", buckets, got.rounds, got.sample)
			}
			if delta <= 0.05 && (got.rounds >= cold.rounds || got.sample >= cold.sample) {
				t.Errorf("B=%d δ=%v: %.2f rounds / %.0f sample, not below cold's %.2f / %.0f",
					buckets, delta, got.rounds, got.sample, cold.rounds, cold.sample)
			}
			if got.rounds > cold.rounds+0.5 || got.sample > 1.1*cold.sample {
				t.Errorf("B=%d δ=%v: %.2f rounds / %.0f sample against cold's %.2f / %.0f",
					buckets, delta, got.rounds, got.sample, cold.rounds, cold.sample)
			}
			if got.worst > 1+eps+1e-9 {
				t.Errorf("B=%d δ=%v: worst imbalance %.4f", buckets, delta, got.worst)
			}
		}
	}
}
