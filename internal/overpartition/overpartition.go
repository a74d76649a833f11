package overpartition

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/merge"
	"hssort/internal/sampling"
)

// Options configures an over-partitioning sort. Cmp is required.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// OverRatio is k: buckets = k·p. Li & Sevcik recommend k = log p;
	// that is the default.
	OverRatio int
	// Oversample is the per-processor splitter-sample size; default
	// k·OverRatio·4 evenly spaced keys (enough for k·p−1 splitters with
	// 4× oversampling).
	Oversample int
	// Seed drives block sampling. Default 1.
	Seed uint64
}

func (o Options[K]) withDefaults(p int) (Options[K], error) {
	if o.Cmp == nil {
		return o, fmt.Errorf("overpartition: Options.Cmp is required")
	}
	if o.OverRatio == 0 {
		o.OverRatio = int(math.Ceil(math.Log2(float64(max(p, 2)))))
	}
	if o.OverRatio < 1 {
		return o, fmt.Errorf("overpartition: OverRatio %d < 1", o.OverRatio)
	}
	if o.Oversample == 0 {
		o.Oversample = 4 * o.OverRatio
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// baseTag is the start of the tag range this sort uses (10 tags).
const baseTag comm.Tag = 8000

// Tag offsets within the range.
const (
	tagCount    = 0 // N all-reduce (+1)
	tagGather   = 2 // sample gather
	tagSplit    = 3 // splitter broadcast
	tagRanks    = 4 // bucket-size histogram reduction
	tagOwners   = 5 // owner-map broadcast
	tagExchange = 6 // bucket exchange (7 is unused)
	tagStats    = 8 // stats all-reduce (+1)
)

// Sort runs the over-partitioning sort. Each rank's output is sorted;
// outputs across ranks are disjoint key ranges but in LPT (not key)
// order. The input is consumed.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, core.Stats, error) {
	opt, err := opt.withDefaults(c.Size())
	if err != nil {
		return nil, core.Stats{}, err
	}
	p := c.Size()
	buckets := opt.OverRatio * p
	var stats core.Stats
	stats.Buckets = buckets

	t0 := time.Now()
	slices.SortFunc(local, opt.Cmp)
	localSort := time.Since(t0)

	nVec, err := collective.AllReduce(c, baseTag+tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err != nil {
		return nil, stats, err
	}
	stats.N = nVec[0]

	// Splitter sampling: random-block samples per rank, merged at root;
	// buckets-1 evenly spaced splitters.
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	rng := rand.New(rand.NewPCG(opt.Seed, 0xabcdef^uint64(c.Rank())))
	mine := sampling.RandomBlock(local, opt.Oversample, rng)
	parts, err := collective.Gatherv(c, 0, baseTag+tagGather, mine)
	if err != nil {
		return nil, stats, err
	}
	var splitters []K
	if c.Rank() == 0 {
		lambda := merge.KWay(parts, opt.Cmp)
		splitters = make([]K, 0, buckets-1)
		if len(lambda) > 0 {
			for i := 1; i < buckets; i++ {
				idx := i * len(lambda) / buckets
				if idx >= len(lambda) {
					idx = len(lambda) - 1
				}
				splitters = append(splitters, lambda[idx])
			}
		}
		stats.TotalSample = int64(len(lambda))
		stats.Rounds = 1
	}
	splitters, err = collective.Bcast(c, 0, baseTag+tagSplit, splitters)
	if err != nil {
		return nil, stats, err
	}

	// One histogram round tells the root every bucket's size, which is
	// what the LPT assignment needs (the distributed stand-in for the
	// task queue's size ordering).
	localRanks := histogram.LocalRanks(local, splitters, opt.Cmp)
	globalRanks, err := collective.Reduce(c, 0, baseTag+tagRanks, localRanks, collective.SumInt64)
	if err != nil {
		return nil, stats, err
	}
	var owners []int64
	if c.Rank() == 0 {
		sizes := bucketSizes(globalRanks, stats.N)
		owners = lptAssign(sizes, p)
	}
	owners, err = collective.Bcast(c, 0, baseTag+tagOwners, owners)
	if err != nil {
		return nil, stats, err
	}
	splitterTime := time.Since(t1)
	splitterBytes := c.Counters().BytesSent - bytes0

	// Exchange + merge with the LPT owner map.
	bytes1 := c.Counters().BytesSent
	t2 := time.Now()
	runs := exchange.Partition(local, splitters, opt.Cmp)
	recv, err := exchange.Exchange(c, baseTag+tagExchange, runs, func(b int) int { return int(owners[b]) })
	if err != nil {
		return nil, stats, err
	}
	exchangeTime := time.Since(t2)
	exchangeBytes := c.Counters().BytesSent - bytes1

	t3 := time.Now()
	out := merge.KWay(recv, opt.Cmp)
	mergeTime := time.Since(t3)

	agg, err := collective.AllReduce(c, baseTag+tagStats, []int64{
		splitterBytes, exchangeBytes,
		int64(localSort), int64(splitterTime), int64(exchangeTime), int64(mergeTime),
		int64(len(out)), int64(len(out)),
	}, func(dst, src []int64) {
		dst[0] += src[0]
		dst[1] += src[1]
		for i := 2; i <= 5; i++ {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
		dst[6] += src[6]
		if src[7] > dst[7] {
			dst[7] = src[7]
		}
	})
	if err != nil {
		return nil, stats, err
	}
	stats.SplitterBytes = agg[0]
	stats.ExchangeBytes = agg[1]
	stats.LocalSort = time.Duration(agg[2])
	stats.Splitter = time.Duration(agg[3])
	stats.Exchange = time.Duration(agg[4])
	stats.Merge = time.Duration(agg[5])
	if agg[6] > 0 {
		stats.Imbalance = float64(agg[7]) * float64(p) / float64(agg[6])
	} else {
		stats.Imbalance = 1
	}
	return out, stats, nil
}

// bucketSizes converts splitter ranks into per-bucket key counts.
func bucketSizes(ranks []int64, n int64) []int64 {
	sizes := make([]int64, len(ranks)+1)
	prev := int64(0)
	for i, r := range ranks {
		sizes[i] = r - prev
		prev = r
	}
	sizes[len(ranks)] = n - prev
	return sizes
}

// lptAssign distributes buckets to p processors largest-first, each to
// the currently least-loaded processor — the greedy longest-processing-
// time rule whose makespan is within 4/3 of optimal.
func lptAssign(sizes []int64, p int) []int64 {
	type bucket struct {
		idx  int
		size int64
	}
	order := make([]bucket, len(sizes))
	for i, s := range sizes {
		order[i] = bucket{idx: i, size: s}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].size > order[b].size })
	loads := make([]int64, p)
	owners := make([]int64, len(sizes))
	for _, b := range order {
		best := 0
		for r := 1; r < p; r++ {
			if loads[r] < loads[best] {
				best = r
			}
		}
		owners[b.idx] = int64(best)
		loads[best] += b.size
	}
	return owners
}
