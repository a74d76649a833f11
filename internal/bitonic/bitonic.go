package bitonic

import (
	"fmt"
	"slices"
	"time"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
)

// Options configures a bitonic sort. Cmp is required.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
}

// baseTag is the start of the tag range this sort uses.
const baseTag comm.Tag = 4000

// Sort runs distributed bitonic sort. The world size must be a power of
// two and every rank must hold the same number of keys (the classic
// hypercube formulation; §4.2 notes the algorithm's rigidity). The result
// is the globally sorted partition in rank order. The input is consumed.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, core.Stats, error) {
	if opt.Cmp == nil {
		return nil, core.Stats{}, fmt.Errorf("bitonic: Options.Cmp is required")
	}
	p := c.Size()
	if p&(p-1) != 0 {
		return nil, core.Stats{}, fmt.Errorf("bitonic: world size %d is not a power of two", p)
	}
	var stats core.Stats
	stats.Buckets = p

	// Equal local sizes are required for compare-split symmetry.
	sizes, err := collective.AllReduce(c, baseTag, []int64{int64(len(local)), int64(len(local))},
		func(dst, src []int64) {
			if src[0] < dst[0] {
				dst[0] = src[0]
			}
			if src[1] > dst[1] {
				dst[1] = src[1]
			}
		})
	if err != nil {
		return nil, stats, err
	}
	if sizes[0] != sizes[1] {
		return nil, stats, fmt.Errorf("bitonic: unequal local sizes (min %d, max %d)", sizes[0], sizes[1])
	}
	stats.N = int64(p) * sizes[0]

	t0 := time.Now()
	slices.SortFunc(local, opt.Cmp)
	localSort := time.Since(t0)

	me := c.Rank()
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	stage := 0
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			partner := me ^ j
			// Within a merge stage of block size k, blocks with
			// (rank & k) == 0 sort ascending; the lower rank of an
			// ascending pair keeps the small half.
			ascending := me&k == 0
			keepSmall := ascending == (me < partner)
			tag := baseTag + 2 + comm.Tag(stage)
			stage++
			if err := comm.SendSlice(c, partner, tag, local); err != nil {
				return nil, stats, err
			}
			theirs, err := comm.RecvSlice[K](c, partner, tag)
			if err != nil {
				return nil, stats, err
			}
			local = compareSplit(local, theirs, keepSmall, opt.Cmp)
		}
	}
	exchangeTime := time.Since(t1)
	exchangeBytes := c.Counters().BytesSent - bytes0

	agg, err := collective.AllReduce(c, baseTag+1, []int64{
		exchangeBytes, int64(localSort), int64(exchangeTime),
	}, func(dst, src []int64) {
		dst[0] += src[0]
		for i := 1; i <= 2; i++ {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	})
	if err != nil {
		return nil, stats, err
	}
	stats.ExchangeBytes = agg[0]
	stats.LocalSort = time.Duration(agg[1])
	stats.Exchange = time.Duration(agg[2])
	stats.Imbalance = 1 // bitonic preserves equal loads exactly
	return local, stats, nil
}

// compareSplit merges two sorted runs of equal length and keeps the lower
// or upper half, the distributed compare-exchange primitive.
func compareSplit[K any](mine, theirs []K, keepSmall bool, cmp func(K, K) int) []K {
	n := len(mine)
	out := make([]K, n)
	if keepSmall {
		i, j := 0, 0
		for k := 0; k < n; k++ {
			if j >= len(theirs) || (i < n && cmp(mine[i], theirs[j]) <= 0) {
				out[k] = mine[i]
				i++
			} else {
				out[k] = theirs[j]
				j++
			}
		}
		return out
	}
	i, j := n-1, len(theirs)-1
	for k := n - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && cmp(mine[i], theirs[j]) > 0) {
			out[k] = mine[i]
			i--
		} else {
			out[k] = theirs[j]
			j--
		}
	}
	return out
}
