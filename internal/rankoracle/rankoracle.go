package rankoracle

import (
	"fmt"
	"math/rand/v2"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/sampling"
)

// Options configures an Oracle. Cmp is required.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// Epsilon is the rank-accuracy parameter: answers are within
	// N·Epsilon/p of truth w.h.p. Default 0.05.
	Epsilon float64
	// SampleSize overrides the per-processor sample size; default
	// √(2p ln p)/ε (Theorem 3.4.1).
	SampleSize int
	// Seed drives block sampling. Default 1.
	Seed uint64
}

// baseTag is the start of the tag range the oracle uses (3 tags).
const baseTag comm.Tag = 6000

func (o Options[K]) withDefaults(p int) (Options[K], error) {
	if o.Cmp == nil {
		return o, fmt.Errorf("rankoracle: Options.Cmp is required")
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Epsilon < 0 {
		return o, fmt.Errorf("rankoracle: Epsilon %v < 0", o.Epsilon)
	}
	if o.SampleSize == 0 {
		o.SampleSize = sampling.RepresentativeSize(p, o.Epsilon)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// Oracle is one rank's handle to the distributed rank oracle. All ranks
// must construct it collectively (New) and issue the same queries in the
// same order (Query is a collective operation).
type Oracle[K any] struct {
	c   *comm.Comm
	opt Options[K]
	rep sampling.Representative[K]
	// N is the global key count the oracle summarizes.
	N int64
}

// New builds the oracle over this rank's locally sorted data. It is a
// collective call: every rank of the world must participate.
func New[K any](c *comm.Comm, sortedLocal []K, opt Options[K]) (*Oracle[K], error) {
	opt, err := opt.withDefaults(c.Size())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(opt.Seed, 0x94d049bb133111eb^uint64(c.Rank())))
	rep := sampling.NewRepresentative(sortedLocal, opt.SampleSize, rng)
	nVec, err := collective.AllReduce(c, baseTag, []int64{int64(len(sortedLocal))}, collective.SumInt64)
	if err != nil {
		return nil, err
	}
	return &Oracle[K]{c: c, opt: opt, rep: rep, N: nVec[0]}, nil
}

// Query estimates the global ranks (count of keys strictly less) of the
// given probe keys. Collective: every rank must pass identical probes;
// every rank receives the same estimates. Cost is one reduction of
// len(probes) counters plus one broadcast — the full input is never
// scanned.
func (o *Oracle[K]) Query(probes []K) ([]int64, error) {
	local := make([]int64, len(probes))
	for i, q := range probes {
		local[i] = o.rep.LocalRank(q, o.opt.Cmp)
	}
	return collective.AllReduce(o.c, baseTag+1, local, collective.SumInt64)
}

// ErrorBound returns the w.h.p. accuracy radius N·ε/p of Theorem 3.4.1.
func (o *Oracle[K]) ErrorBound() int64 {
	return int64(o.opt.Epsilon * float64(o.N) / float64(o.c.Size()))
}

// SampleSize returns the per-rank representative sample size in use.
func (o *Oracle[K]) SampleSize() int { return len(o.rep.Keys) }
