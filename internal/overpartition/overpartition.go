package overpartition

import (
	"fmt"
	"math"
	"sort"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/histogram"
	"hssort/internal/samplesort"
)

// Options configures an over-partitioning sort. Cmp is required.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// OverRatio is k: buckets = k·p. Li & Sevcik recommend k = log p;
	// that is the default.
	OverRatio int
	// Oversample is the per-processor splitter-sample size; default
	// 4·OverRatio random-block keys (samplesort's Random method), which
	// gives the k·p−1 splitters a 4× oversampled combined sample.
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
	return o, nil
}

// tagLPT follows the sampling phase's tags (samplesort.DetermineSplitters
// uses three): the bucket-size reduction runs up the binomial tree on it
// and the owner-map broadcast down the same tree.
const tagLPT = core.TagStrategy + 3

// Sort runs the over-partitioning sort: the skeleton (core.SortWith) over
// k·p buckets under the LPT strategy, whose owner map routes the
// exchange. Each rank's output is sorted; outputs across ranks are
// disjoint key ranges but in LPT (not key) order. The input is consumed.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, core.Stats, error) {
	opt, err := opt.withDefaults(c.Size())
	if err != nil {
		return nil, core.Stats{}, err
	}
	// The back half is the first to call owner, after lpt has filled
	// owners.
	var owners []int64
	owner := func(b int) int { return int(owners[b]) }
	lpt := func(e comm.Endpoint, sorted []K, n int64, o core.Options[K]) ([]K, core.SplitterInfo, error) {
		splitters, info, err := samplesort.DetermineSplitters(e, sorted, n, o, samplesort.Options{Method: samplesort.Random, Oversample: opt.Oversample})
		if err != nil {
			return nil, info, err
		}
		// One histogram of the splitters tells the root every bucket's
		// size, which is what the LPT assignment needs (the distributed
		// stand-in for the task queue's size ordering).
		ranks, err := collective.Reduce(e, 0, tagLPT, histogram.LocalRanks(sorted, splitters, o.Cmp), collective.SumInt64)
		if err != nil {
			return nil, info, err
		}
		var m []int64
		if e.Rank() == 0 {
			m = lptAssign(bucketSizes(ranks, n), e.Size())
		}
		owners, err = collective.Bcast(e, 0, tagLPT, m)
		return splitters, info, err
	}
	return core.SortWith(c, local, core.Options[K]{Cmp: opt.Cmp, Buckets: opt.OverRatio * c.Size(), Owner: owner, Seed: opt.Seed},
		core.Strategies[K]{Keys: lpt})
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
