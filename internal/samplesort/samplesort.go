package samplesort

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/merge"
	"hssort/internal/par"
	"hssort/internal/sampling"
	"hssort/internal/spill"
)

// Method selects the sampling method.
type Method int

const (
	// Regular picks s evenly spaced keys per processor (§4.1.2).
	Regular Method = iota
	// Random picks one uniform key per block of N/(ps) keys (§4.1.1).
	Random
)

// String returns the method name used in experiment output.
func (m Method) String() string {
	switch m {
	case Regular:
		return "regular"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a sample sort. Cmp is required.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// Code, when set, must be an order-preserving uint64 extractor for
	// Cmp; the compute hot paths (local sort, partition cuts, merges)
	// then run on the comparator-free code plane (see core.Options.Code).
	Code func(K) uint64
	// PrefixCode marks Code as a non-injective prefix extractor (see
	// core.Options.PrefixCode): the pipeline runs code-keyed with a
	// comparator tie-break after the local sort and inside the merges,
	// and the sampling phase gathers fixed-size code points instead of
	// keys. Requires Code.
	PrefixCode bool
	// Epsilon is the target load-imbalance threshold. Default 0.05.
	Epsilon float64
	// Buckets is the number of output ranges. Default: world size.
	Buckets int
	// Owner maps buckets to ranks. Default contiguous.
	Owner func(bucket int) int
	// Method selects regular or random sampling. Default Regular.
	Method Method
	// Oversample is the per-processor sample size s. Default: the
	// method's provable value — B/ε for Regular (Lemma 4.1.1),
	// 4(1+ε)ln N/ε² for Random (§4.1.1) — capped by MaxOversample.
	Oversample int
	// MaxOversample caps s so huge configurations stay runnable;
	// 0 means no cap. The cap mirrors what practical deployments do and
	// is reported in Stats so experiments can show the guarantee/cost
	// trade-off.
	MaxOversample int
	// Seed drives random sampling. Default 1.
	Seed uint64
	// ChunkKeys, when positive, selects the streaming chunked exchange
	// (see core.Options.ChunkKeys). 0 = materializing exchange.
	ChunkKeys int
	// Workers is this rank's compute-phase worker budget (see
	// core.Options.Workers). <= 1 runs every kernel serially.
	Workers int
	// Splitters, when non-nil, injects pre-determined splitters and
	// skips the sampling phase entirely (see core.Options.Splitters):
	// Buckets-1 keys in non-decreasing cmp order, identical on every
	// rank.
	Splitters []K
	// StaleBound arms the staleness guard for injected Splitters (see
	// core.Options.StaleBound). 0 disables it.
	StaleBound float64
	// Scratch, when non-nil, is this rank's reusable exchange state
	// (see core.Options.Scratch).
	Scratch *exchange.Scratch[K]
	// Spill, when non-nil, is this rank's out-of-core manager (see
	// core.Options.Spill). nil keeps every phase in memory.
	Spill *spill.Manager
	// BaseTag is the start of the tag range this sort uses. Default 2000.
	BaseTag comm.Tag
}

func (o Options[K]) withDefaults(p int, n int64) (Options[K], error) {
	if o.Cmp == nil {
		return o, fmt.Errorf("samplesort: Options.Cmp is required")
	}
	if o.PrefixCode && o.Code == nil {
		return o, fmt.Errorf("samplesort: PrefixCode requires Code")
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Epsilon < 0 {
		return o, fmt.Errorf("samplesort: Epsilon %v < 0", o.Epsilon)
	}
	if o.Buckets == 0 {
		o.Buckets = p
	}
	if o.Buckets < 1 {
		return o, fmt.Errorf("samplesort: Buckets %d < 1", o.Buckets)
	}
	if o.Owner == nil {
		o.Owner = exchange.ContiguousOwner(o.Buckets, p)
	}
	if o.Oversample == 0 {
		switch o.Method {
		case Regular:
			o.Oversample = int(math.Ceil(float64(o.Buckets) / o.Epsilon))
		case Random:
			if n < 2 {
				n = 2
			}
			o.Oversample = int(math.Ceil(4 * (1 + o.Epsilon) * math.Log(float64(n)) / (o.Epsilon * o.Epsilon)))
		}
	}
	if o.Oversample < 1 {
		o.Oversample = 1
	}
	if o.MaxOversample > 0 && o.Oversample > o.MaxOversample {
		o.Oversample = o.MaxOversample
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ChunkKeys < 0 {
		return o, fmt.Errorf("samplesort: ChunkKeys %d < 0", o.ChunkKeys)
	}
	if o.StaleBound < 0 {
		return o, fmt.Errorf("samplesort: StaleBound %v < 0", o.StaleBound)
	}
	if o.Splitters != nil && len(o.Splitters) != o.Buckets-1 {
		return o, fmt.Errorf("samplesort: %d injected splitters for %d buckets (want %d)", len(o.Splitters), o.Buckets, o.Buckets-1)
	}
	if o.BaseTag == 0 {
		o.BaseTag = 2000
	}
	return o, nil
}

// Tag offsets within BaseTag.
const (
	tagCount    = 0 // N all-reduce (+1)
	tagGather   = 2 // sample gather
	tagSplit    = 3 // splitter broadcast (+1)
	tagExchange = 5 // bucket exchange
	tagStats    = 6 // stats all-reduce (+1)
	tagStale    = 8 // staleness-guard bucket-load all-reduce
)

// Sort runs parallel sample sort on this rank's keys and returns its
// globally sorted partition. Every rank must call Sort with the same
// Options. The input slice is consumed.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, core.Stats, error) {
	if opt.PrefixCode {
		if opt.Code == nil {
			return nil, core.Stats{}, fmt.Errorf("samplesort: PrefixCode requires Code")
		}
		return sortPrefix(c, local, opt)
	}
	var stats core.Stats
	pool := par.New(opt.Workers)
	stats.Workers = pool.Workers()
	// Phase 1: local sort — radix on the code plane when available,
	// fanned over this rank's worker pool; in place with bounded
	// scratch under a memory budget (see spill.LocalSort).
	t0 := time.Now()
	localCodes, err := spill.LocalSort(opt.Spill, local, opt.Code, opt.Cmp, pool)
	if err != nil {
		return nil, stats, err
	}
	localSort := time.Since(t0)

	nVec, err := collective.AllReduce(c, opt.BaseTag+tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err != nil {
		return nil, stats, err
	}
	n := nVec[0]
	opt, err = opt.withDefaults(c.Size(), n)
	if err != nil {
		return nil, stats, err
	}
	base := opt.BaseTag
	stats.N = n
	stats.Buckets = opt.Buckets

	// Phase 2: sampling + splitter selection at the central processor —
	// skipped when a stored plan injects the splitters.
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	splitters := opt.Splitters
	if splitters != nil {
		exchange.ValidateSplitters(splitters, opt.Cmp)
	} else {
		var sampleSize int64
		splitters, sampleSize, err = DetermineSplitters(c, local, n, opt)
		if err != nil {
			return nil, stats, err
		}
		stats.Rounds = 1
		stats.SamplePerRound = []int64{sampleSize}
		stats.TotalSample = sampleSize
	}
	splitterTime := time.Since(t1)
	splitterBytes := c.Counters().BytesSent - bytes0

	// Phase 3+4: exchange and merge (identical to HSS).
	partition := func(sp []K) [][]K {
		if localCodes != nil {
			return exchange.PartitionByCodePar(local, localCodes, codes.Extract(sp, opt.Code), pool)
		}
		return exchange.PartitionPar(local, sp, opt.Cmp, pool)
	}
	t2 := time.Now()
	runs := partition(splitters)
	partitionTime := time.Since(t2)
	if opt.Splitters != nil && opt.StaleBound > 0 {
		t3 := time.Now()
		imb, _, err := exchange.RunsImbalance(c, base+tagStale, runs)
		if err != nil {
			return nil, stats, err
		}
		if imb > opt.StaleBound {
			stats.Replanned = true
			splitters, sampleSize, err := DetermineSplitters(c, local, n, opt)
			if err != nil {
				return nil, stats, err
			}
			stats.Rounds = 1
			stats.SamplePerRound = []int64{sampleSize}
			stats.TotalSample = sampleSize
			runs = partition(splitters)
		}
		splitterTime += time.Since(t3)
		splitterBytes = c.Counters().BytesSent - bytes0
	}
	bytes1 := c.Counters().BytesSent
	out, exchangeTime, mergeTime, sst, err := exchange.ExchangeMerge(
		c, base+tagExchange, runs, opt.Owner, opt.Cmp, opt.Code,
		exchange.StreamOptions{ChunkKeys: opt.ChunkKeys, Pool: pool, Spill: opt.Spill}, opt.Scratch)
	if err != nil {
		return nil, stats, err
	}
	exchangeBytes := c.Counters().BytesSent - bytes1
	stats.LocalCount = len(out)

	pc := pool.Counters()
	if err := core.FinishStats(c, base+tagStats, &stats, core.PhaseTimes{
		SplitterBytes: splitterBytes,
		ExchangeBytes: exchangeBytes,
		LocalSort:     localSort,
		Splitter:      splitterTime,
		Exchange:      partitionTime + exchangeTime,
		Merge:         mergeTime,
		Overlap:       sst.Overlap,
		PeakInFlight:  sst.PeakInFlight,
		OutCount:      len(out),
		ParSpawned:    pc.Spawned,
		ParTasks:      pc.Tasks,
		Spill:         opt.Spill.TakeStats(),
	}); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// sortPrefix is the prefix plane (Options.PrefixCode): the local sort
// radix-sorts the code decoration and repairs equal-code spans with the
// comparator, the sampling phase runs entirely over the sorted code
// decoration (gathered samples are fixed-size code points regardless of
// key length), partition cuts run on codes, and the merges tie-break
// equal codes with the comparator (see core.Options.PrefixCode).
func sortPrefix[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, core.Stats, error) {
	var stats core.Stats
	pool := par.New(opt.Workers)
	stats.Workers = pool.Workers()

	t0 := time.Now()
	localCodes := codes.SortByCodePar(local, opt.Code, pool)
	collisions := codes.TieBreakPar(localCodes, local, opt.Cmp, pool)
	localSort := time.Since(t0)

	if opt.BaseTag == 0 {
		opt.BaseTag = 2000
	}
	nVec, err := collective.AllReduce(c, opt.BaseTag+tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err != nil {
		return nil, stats, err
	}
	n := nVec[0]
	opt, err = opt.withDefaults(c.Size(), n)
	if err != nil {
		return nil, stats, err
	}
	base := opt.BaseTag
	stats.N = n
	stats.Buckets = opt.Buckets

	// Phase 2: sampling + splitter selection in code space. Injected
	// splitters are projected to their codes (exact: a splitter's code
	// is a pure function of the key).
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	var spCodes []codes.Code
	if opt.Splitters != nil {
		spCodes = codes.Extract(opt.Splitters, opt.Code)
		exchange.ValidateSplitters(spCodes, codes.Compare)
	} else {
		var sampleSize int64
		spCodes, sampleSize, err = DetermineSplitters(c, localCodes, n, prefixDetOptions(opt))
		if err != nil {
			return nil, stats, err
		}
		stats.Rounds = 1
		stats.SamplePerRound = []int64{sampleSize}
		stats.TotalSample = sampleSize
	}
	splitterTime := time.Since(t1)
	splitterBytes := c.Counters().BytesSent - bytes0

	t2 := time.Now()
	runs := exchange.PartitionByCodePar(local, localCodes, spCodes, pool)
	partitionTime := time.Since(t2)
	if opt.Splitters != nil && opt.StaleBound > 0 {
		t3 := time.Now()
		imb, _, err := exchange.RunsImbalance(c, base+tagStale, runs)
		if err != nil {
			return nil, stats, err
		}
		if imb > opt.StaleBound {
			stats.Replanned = true
			var sampleSize int64
			spCodes, sampleSize, err = DetermineSplitters(c, localCodes, n, prefixDetOptions(opt))
			if err != nil {
				return nil, stats, err
			}
			stats.Rounds = 1
			stats.SamplePerRound = []int64{sampleSize}
			stats.TotalSample = sampleSize
			runs = exchange.PartitionByCodePar(local, localCodes, spCodes, pool)
		}
		splitterTime += time.Since(t3)
		splitterBytes = c.Counters().BytesSent - bytes0
	}

	bytes1 := c.Counters().BytesSent
	out, exchangeTime, mergeTime, sst, err := exchange.ExchangeMerge(
		c, base+tagExchange, runs, opt.Owner, opt.Cmp, opt.Code,
		exchange.StreamOptions{ChunkKeys: opt.ChunkKeys, Pool: pool, Tie: true}, opt.Scratch)
	if err != nil {
		return nil, stats, err
	}
	exchangeBytes := c.Counters().BytesSent - bytes1
	stats.LocalCount = len(out)

	pc := pool.Counters()
	if err := core.FinishStats(c, base+tagStats, &stats, core.PhaseTimes{
		SplitterBytes:    splitterBytes,
		ExchangeBytes:    exchangeBytes,
		LocalSort:        localSort,
		Splitter:         splitterTime,
		Exchange:         partitionTime + exchangeTime,
		Merge:            mergeTime,
		Overlap:          sst.Overlap,
		PeakInFlight:     sst.PeakInFlight,
		OutCount:         len(out),
		ParSpawned:       pc.Spawned,
		ParTasks:         pc.Tasks,
		PrefixCollisions: collisions,
	}); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// prefixDetOptions projects prefix-plane options onto code space for the
// sampling phase: draws, the root's sample merge and splitter selection
// all run over sorted code decorations under raw integer comparison.
func prefixDetOptions[K any](o Options[K]) Options[codes.Code] {
	return Options[codes.Code]{
		Cmp:           codes.Compare,
		Code:          codes.ExtractCode,
		Epsilon:       o.Epsilon,
		Buckets:       o.Buckets,
		Method:        o.Method,
		Oversample:    o.Oversample,
		MaxOversample: o.MaxOversample,
		Seed:          o.Seed,
		BaseTag:       o.BaseTag,
	}
}

// DetermineSplitters runs the sampling phase (§2.2 steps 1-2): every rank
// contributes s keys, the root sorts the combined sample and selects
// evenly spaced splitters, broadcast to all ranks. local must already be
// sorted. It returns the splitters on every rank plus the combined
// sample size. Exported so splitter plans (hssort.Sorter.Plan) can run
// the sampling phase alone; defaults are applied internally
// (idempotent).
func DetermineSplitters[K any](c *comm.Comm, local []K, n int64, opt Options[K]) ([]K, int64, error) {
	opt, err := opt.withDefaults(c.Size(), n) // idempotent
	if err != nil {
		return nil, 0, err
	}
	var mine []K
	switch opt.Method {
	case Regular:
		mine = sampling.Regular(local, opt.Oversample)
	case Random:
		rng := rand.New(rand.NewPCG(opt.Seed, uint64(c.Rank())*0x9e3779b97f4a7c15))
		mine = sampling.RandomBlock(local, opt.Oversample, rng)
	default:
		return nil, 0, fmt.Errorf("samplesort: unknown method %d", opt.Method)
	}
	parts, err := collective.Gatherv(c, 0, opt.BaseTag+tagGather, mine)
	if err != nil {
		return nil, 0, err
	}
	var splitters []K
	var sampleSize int64
	if c.Rank() == 0 {
		// Merge the p sorted per-rank samples (duplicates retained: the
		// splitter index formula depends on the full multiset).
		lambda := mergeParts(parts, opt.Cmp)
		sampleSize = int64(len(lambda))
		splitters = selectSplitters(lambda, c.Size(), opt)
	}
	splitters, err = collective.Bcast(c, 0, opt.BaseTag+tagSplit, splitters)
	if err != nil {
		return nil, 0, err
	}
	size, err := collective.BcastValue(c, 0, opt.BaseTag+tagSplit+1, sampleSize)
	if err != nil {
		return nil, 0, err
	}
	// The one-time validation that lets exchange.Partition skip its
	// per-call O(B) re-check.
	exchange.ValidateSplitters(splitters, opt.Cmp)
	return splitters, size, nil
}

// mergeParts pairwise-merges sorted per-rank samples.
func mergeParts[K any](parts [][]K, cmp func(K, K) int) []K {
	for len(parts) > 1 {
		var next [][]K
		for i := 0; i+1 < len(parts); i += 2 {
			next = append(next, merge.Two(parts[i], parts[i+1], cmp))
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		parts = next
	}
	if len(parts) == 0 {
		return nil
	}
	return parts[0]
}

// selectSplitters picks B-1 splitters from the combined sorted sample Λ.
// Regular sampling uses the shifted index λ_{s·i − p/2} of §4.1.2
// (generalized to B buckets via the sample fraction i/B with a half-block
// back-shift); random sampling picks evenly spaced keys (§4.1.1).
func selectSplitters[K any](lambda []K, p int, opt Options[K]) []K {
	m := len(lambda)
	b := opt.Buckets
	if m == 0 || b == 1 {
		// No sample (empty input) or a single bucket: no splitters —
		// everything lands in bucket 0.
		return []K{}
	}
	out := make([]K, 0, b-1)
	for i := 1; i < b; i++ {
		var idx int
		switch opt.Method {
		case Regular:
			// 1-based λ_{s·i − p/2} with s·i generalized to i·M/B.
			idx = i*m/b - p/2 - 1
		default:
			idx = i * m / b
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= m {
			idx = m - 1
		}
		out = append(out, lambda[idx])
	}
	// Clamping can invert neighbours on tiny samples; restore order.
	slices.SortFunc(out, opt.Cmp)
	return out
}
