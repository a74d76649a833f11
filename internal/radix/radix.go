package radix

import (
	"fmt"
	"slices"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/keycoder"
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
// sorted partition: the skeleton (core.SortWith) under the digit
// strategy, flat (one bucket per rank, bucket b on rank b). The input is
// consumed.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, core.Stats, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, core.Stats{}, err
	}
	owner := func(b int) int { return b } // explicit, so the sort stays flat (core.Levels)
	return core.SortWith(c, local, core.Options[K]{Cmp: opt.Cmp, Owner: owner}, core.Strategies[K]{Keys: opt.splitters})
}

// splitters all-reduces the global histogram of the top Bits digits and
// assigns digits to the buckets in contiguous, balance-greedy blocks: a
// bucket closes once it holds >= N/B keys. Bucket b then ends where
// digit d+1 begins, at the key of code (d+1)<<shift. When the digits run
// out before the buckets, the rest end at the key of the all-ones code,
// so only a key with that code lands past the last digit's bucket.
func (o Options[K]) splitters(e comm.Endpoint, sorted []K, n int64, opt core.Options[K]) ([]K, core.SplitterInfo, error) {
	info := core.SplitterInfo{Rounds: 1, Finalized: true}
	buckets := opt.Buckets
	if buckets == 1 || n == 0 {
		return []K{}, info, nil
	}
	shift := 64 - o.Bits
	counts := make([]int64, 1<<o.Bits)
	for _, k := range sorted {
		counts[o.Coder.Encode(k)>>shift]++
	}
	global, err := collective.AllReduce(e, core.TagStrategy, counts, collective.SumInt64)
	if err != nil {
		return nil, info, err
	}
	perBucket := max(n/int64(buckets), 1)
	sp := make([]K, 0, buckets-1)
	acc := int64(0)
	for d := 0; d < len(global)-1 && len(sp) < buckets-1; d++ {
		if acc += global[d]; acc >= perBucket {
			sp = append(sp, o.Coder.Decode(uint64(d+1)<<shift))
			acc = 0
		}
	}
	for len(sp) < buckets-1 {
		sp = append(sp, o.Coder.Decode(^uint64(0)))
	}
	// Decoded digit boundaries are monotone only for coders that invert
	// on the full code space.
	if !slices.IsSortedFunc(sp, o.Cmp) {
		return nil, info, fmt.Errorf("radix: the coder's digit boundaries decode out of key order")
	}
	return sp, info, nil
}
