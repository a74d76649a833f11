package radix

import (
	"fmt"
	"slices"
	"time"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/keycoder"
	"hssort/internal/merge"
)

// Options configures a radix partition sort. Cmp and Coder are required.
type Options[K any] struct {
	// Cmp is the three-way key comparator (used for local sorting and
	// merging).
	Cmp func(K, K) int
	// Coder maps keys to the uint64 code space whose top bits are the
	// partitioning digits.
	Coder keycoder.Coder[K]
	// Bits is the digit width: 2^Bits buckets. Default 12 (4096
	// buckets). Must be in [1, 24].
	Bits int
}

// baseTag is the start of the tag range this sort uses: the digit-count
// all-reduce (+0, +1), the bucket exchange (+2; +3 is unused) and the
// stats all-reduce (+4, +5).
const baseTag comm.Tag = 5000

func (o Options[K]) withDefaults() (Options[K], error) {
	if o.Cmp == nil {
		return o, fmt.Errorf("radix: Options.Cmp is required")
	}
	if o.Coder == nil {
		return o, fmt.Errorf("radix: Options.Coder is required")
	}
	if o.Bits == 0 {
		o.Bits = 12
	}
	if o.Bits < 1 || o.Bits > 24 {
		return o, fmt.Errorf("radix: Bits %d outside [1,24]", o.Bits)
	}
	return o, nil
}

// Sort runs the radix partition sort and returns this rank's globally
// sorted partition. The input is consumed.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, core.Stats, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, core.Stats{}, err
	}
	p := c.Size()
	digits := 1 << opt.Bits
	shift := 64 - opt.Bits
	var stats core.Stats
	stats.Buckets = digits

	t0 := time.Now()
	slices.SortFunc(local, opt.Cmp)
	localSort := time.Since(t0)

	// Global digit histogram.
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	counts := make([]int64, digits)
	for _, k := range local {
		counts[opt.Coder.Encode(k)>>shift]++
	}
	global, err := collective.AllReduce(c, baseTag, counts, collective.SumInt64)
	if err != nil {
		return nil, stats, err
	}
	var n int64
	for _, v := range global {
		n += v
	}
	stats.N = n
	// Contiguous, balance-greedy digit→rank assignment: close a rank's
	// block once it holds >= N/p keys.
	owner := make([]int, digits)
	perRank := n / int64(p)
	if perRank < 1 {
		perRank = 1
	}
	rank, acc := 0, int64(0)
	for d := 0; d < digits; d++ {
		owner[d] = rank
		acc += global[d]
		if acc >= perRank && rank < p-1 {
			rank++
			acc = 0
		}
	}
	splitterTime := time.Since(t1)
	splitterBytes := c.Counters().BytesSent - bytes0
	stats.Rounds = 1

	// Digit boundaries as splitter keys let the generic partition +
	// exchange machinery do the data movement.
	bytes1 := c.Counters().BytesSent
	t2 := time.Now()
	splitters := make([]K, digits-1)
	for d := 1; d < digits; d++ {
		splitters[d-1] = opt.Coder.Decode(uint64(d) << shift)
	}
	// Decoded digit boundaries are monotone only for coders that
	// invert on the full code space; validate once (the check
	// Partition no longer repeats per call).
	exchange.ValidateSplitters(splitters, opt.Cmp)
	runs := exchange.Partition(local, splitters, opt.Cmp)
	recv, err := exchange.Exchange(c, baseTag+2, runs, func(b int) int { return owner[b] })
	if err != nil {
		return nil, stats, err
	}
	exchangeTime := time.Since(t2)
	exchangeBytes := c.Counters().BytesSent - bytes1

	t3 := time.Now()
	out := merge.Runs([]K{}, recv, opt.Cmp, nil, false, nil, nil)
	mergeTime := time.Since(t3)

	agg, err := collective.AllReduce(c, baseTag+4, []int64{
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
