package core

import (
	"time"

	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/exchange"
	"hssort/internal/par"
	"hssort/internal/spill"
)

// Strategy determines splitters: the only part of a sort that differs
// between HSS, the sample sorts and classic histogram sort. Every rank
// calls it with its locally sorted keys, the global key count n and the
// skeleton's Options — defaults applied, validated once — and every rank
// must return the same opt.Buckets-1 splitters in non-decreasing opt.Cmp
// order (none when opt.Buckets == 1 or n == 0). Its messages use the
// StrategyTags tags from TagStrategy.
type Strategy[E any] func(c *comm.Comm, sorted []E, n int64, opt Options[E]) ([]E, SplitterInfo, error)

// Strategies is one algorithm's strategy on both planes it can be asked
// to run on, instantiated from the same generic function.
type Strategies[K any] struct {
	// Keys runs over the sorted keys.
	Keys Strategy[K]
	// Codes runs the prefix plane (Options.PrefixCode) in code space: over
	// the sorted code decoration, under raw integer comparison. Only HSS
	// has one; the §4.2 baselines' Sort functions reject PrefixCode.
	Codes Strategy[codes.Code]
}

// HSS is the paper's strategy: rounds of sampling and histogramming
// (DetermineSplitters), configured by the Schedule…OnRound block of
// Options.
func HSS[K any]() Strategies[K] {
	return Strategies[K]{Keys: DetermineSplitters[K], Codes: DetermineSplitters[codes.Code]}
}

// Sort runs the full HSS pipeline on this rank's local keys and returns
// the rank's globally sorted partition: local sort → splitter
// determination → all-to-all exchange → k-way merge (§6.1.2). Every rank
// of the world must call Sort with the same Options. The input slice is
// sorted in place and its storage re-used; callers must not reuse it.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, Stats, error) {
	return SortWith(c, local, opt, HSS[K]())
}

// SortWith is Sort under any splitter strategy: the skeleton's two
// halves back to back.
func SortWith[K any](c *comm.Comm, local []K, opt Options[K], s Strategies[K]) ([]K, Stats, error) {
	f, err := FrontHalf(c, local, opt, s)
	if err != nil {
		return nil, Stats{}, err
	}
	return f.BackHalf(c)
}

// Front is one rank's state between the skeleton's halves: its keys
// locally sorted and cut into bucket runs by splitters every rank agrees
// on. The flat sorts hand it straight to BackHalf; the two-level sort
// moves the runs itself; a splitter plan stops here.
type Front[K any] struct {
	// Opt is the Options the front half ran with, defaults applied.
	Opt Options[K]
	// Pool is the rank's compute pool; the data movement keeps using it
	// so its counters cover the whole sort.
	Pool *par.Pool
	// Runs[b] is this rank's share of bucket b. The runs alias the
	// sorted input.
	Runs [][]K
	// Splitters are the Buckets-1 bucket boundaries — nil on the prefix
	// plane, where they exist only as SplitterCodes.
	Splitters []K
	// SplitterCodes are the boundaries' codes, on every coded plane.
	SplitterCodes []codes.Code
	// Finalized is the strategy's SplitterInfo.Finalized.
	Finalized bool
	// Stats holds what is known so far: N, Buckets, Workers and the
	// protocol counts (Rounds, SamplePerRound, TotalSample).
	Stats Stats
	// Times holds this rank's LocalSort, Splitter, SplitterBytes and
	// PrefixCollisions, and the partition's share of Exchange.
	Times PhaseTimes

	// imbalance is the bucket imbalance of Runs once measured, 0 before.
	imbalance float64
}

// FrontHalf is the skeleton up to the point where data moves: local sort
// → global key count → splitters (determined by the strategy, or
// injected and checked by round 0) → partition. Options.PrefixCode
// switches the local sort, the strategy's input and the partition cuts
// to the prefix plane; the steps are the same.
func FrontHalf[K any](c *comm.Comm, local []K, opt Options[K], s Strategies[K]) (*Front[K], error) {
	opt, err := opt.withDefaults(c.Size())
	if err != nil {
		return nil, err
	}
	pool := par.New(opt.Workers)
	f := &Front[K]{Opt: opt, Pool: pool, Finalized: true}
	f.Stats.Buckets = opt.Buckets
	f.Stats.Workers = pool.Workers()

	// Phase 1: local sort (embarrassingly parallel, §6.1.2), fanned over
	// this rank's worker pool and never touching disk. With a code
	// extractor it is the comparator-free radix sort of the code
	// decoration. On the pure plane its scatter scratch is the consumed
	// input in opt.Spare when there is one, else borrowed from the rank's
	// merge scratch, which is idle until the exchange; over a memory
	// budget without a spare it is spill.LocalSort's scratch-free
	// in-place kernel, with identical output. A prefix code orders only
	// up to collisions, so that plane then restores comparator order
	// within equal-code spans; it is never budgeted.
	t0 := time.Now()
	var localCodes []codes.Code
	if opt.PrefixCode {
		localCodes = codes.SortByCodePar(local, opt.Code, pool)
		f.Times.PrefixCollisions = codes.TieBreakPar(localCodes, local, opt.Cmp, pool)
	} else if localCodes, err = spill.LocalSortScratch(opt.Spill, local, opt.Code, opt.Cmp, pool, opt.Scratch.MergeScratch().BorrowCodes, opt.Spare); err != nil {
		return nil, err
	}
	f.Times.LocalSort = time.Since(t0)

	nVec, err := collective.AllReduce(c, tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err != nil {
		return nil, err
	}
	f.Stats.N = nVec[0]

	// Phase 2: splitters. The prefix plane determines them in code space
	// and partitions by those codes directly; every other coded plane
	// extracts the splitter keys' codes (exact: a splitter's code is a
	// pure function of the key).
	determine := func() error {
		var info SplitterInfo
		var err error
		if opt.PrefixCode {
			f.Splitters = nil
			f.SplitterCodes, info, err = s.Codes(c, localCodes, f.Stats.N, opt.inCodeSpace())
		} else {
			f.Splitters, info, err = s.Keys(c, local, f.Stats.N, opt)
		}
		f.Finalized = info.Finalized
		f.Stats.Rounds = info.Rounds
		f.Stats.SamplePerRound = info.SamplePerRound
		f.Stats.TotalSample = info.TotalSample
		return err
	}
	partition := func() {
		f.imbalance = 0
		if localCodes == nil {
			f.Runs = exchange.PartitionPar(local, f.Splitters, opt.Cmp, pool)
			return
		}
		if f.Splitters != nil {
			f.SplitterCodes = codes.Extract(f.Splitters, opt.Code)
		}
		f.Runs = exchange.PartitionByCodePar(local, localCodes, f.SplitterCodes, pool)
	}
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	if opt.Splitters != nil {
		// A seed crosses an API boundary: re-establish the sorted
		// invariant exchange.Partition relies on, once per sort.
		exchange.ValidateSplitters(opt.Splitters, opt.Cmp)
		f.Splitters = opt.Splitters
	} else if err := determine(); err != nil {
		return nil, err
	}
	f.Times.Splitter = time.Since(t1)

	t2 := time.Now()
	partition()
	f.Times.Exchange = time.Since(t2)

	// Round 0: a seed is only as good as the distribution it was
	// histogrammed on, so histogram it on this one. Within the sort's own
	// target it stands (Rounds stays 0). Otherwise the strategy runs after
	// all, and the loads just reduced are not thrown away: Partition puts
	// [S_{i-1}, S_i) in bucket i, so their prefix sums are the global
	// counts of keys strictly below each seed splitter — a histogramming
	// round with the seed as probes. All of it is splitter-determination
	// work.
	if opt.Splitters != nil {
		t3 := time.Now()
		imb, loads, err := f.measure(c)
		if err != nil {
			return nil, err
		}
		if imb > 1+opt.Epsilon {
			// (A fresh slice: a zero-copy transport hands every rank the
			// same reduced loads.)
			opt.round0 = make([]int64, len(opt.Splitters))
			var below int64
			for i := range opt.round0 {
				below += loads[i]
				opt.round0[i] = below
			}
			if err := determine(); err != nil {
				return nil, err
			}
			partition()
		}
		f.Times.Splitter += time.Since(t3)
	}
	f.Times.SplitterBytes = c.Counters().BytesSent - bytes0
	return f, nil
}

// measure all-reduces the bucket loads of f.Runs (the round-0 tag) and
// records the imbalance they amount to.
func (f *Front[K]) measure(c *comm.Comm) (float64, []int64, error) {
	imb, loads, err := exchange.RunsImbalance(c, tagSeed, f.Runs)
	f.imbalance = imb
	return imb, loads, err
}

// BucketImbalance returns the bucket-level imbalance max·B/N the
// partition achieves before any data moves — directly comparable to the
// paper's (1+ε) target and, less one, the achieved ε a splitter plan
// reports. An accepted seed's round 0 already measured it; otherwise
// this is one all-reduce of the bucket loads, which every rank must join.
func (f *Front[K]) BucketImbalance(c *comm.Comm) (float64, error) {
	if f.imbalance != 0 {
		return f.imbalance, nil
	}
	imb, _, err := f.measure(c)
	return imb, err
}

// inCodeSpace projects the options onto the prefix plane's code space,
// where Strategies.Codes runs: same geometry, seed, tags, HSS
// configuration and round 0, with the keys replaced by their codes.
func (o Options[K]) inCodeSpace() Options[codes.Code] {
	oc := Options[codes.Code]{
		Cmp:       codes.Compare,
		Code:      codes.ExtractCode,
		Epsilon:   o.Epsilon,
		Buckets:   o.Buckets,
		Seed:      o.Seed,
		Schedule:  o.Schedule,
		Rounds:    o.Rounds,
		MaxRounds: o.MaxRounds,
		Approx:    o.Approx,
		OnRound:   o.OnRound,
		round0:    o.round0,
	}
	if o.round0 != nil {
		oc.Splitters = codes.Extract(o.Splitters, o.Code)
	}
	return oc
}

// BackHalf is the rest of a flat sort: the all-to-all exchange and k-way
// merge — fused by exchange.ExchangeMerge, which runs either the
// materializing path or (with Options.ChunkKeys > 0 or a Spill manager)
// the streaming pipeline that overlaps the merge with the exchange
// tail — then the closing stats all-reduce. It returns the rank's
// globally sorted partition.
func (f *Front[K]) BackHalf(c *comm.Comm) ([]K, Stats, error) {
	opt := f.Opt
	bytes0 := c.Counters().BytesSent
	out, exchangeTime, mergeTime, sst, err := exchange.ExchangeMerge(
		c, tagExchange, f.Runs, opt.Owner, opt.Cmp, opt.Code,
		exchange.StreamOptions{ChunkKeys: opt.ChunkKeys, Pool: f.Pool, Tie: opt.PrefixCode, Spill: opt.Spill}, opt.Scratch)
	if err != nil {
		return nil, f.Stats, err
	}
	m := f.Times
	m.ExchangeBytes = c.Counters().BytesSent - bytes0
	m.Exchange += exchangeTime
	m.Merge = mergeTime
	m.Overlap = sst.Overlap
	m.PeakInFlight = sst.PeakInFlight
	m.OutCount = len(out)
	pc := f.Pool.Counters()
	m.ParSpawned, m.ParTasks = pc.Spawned, pc.Tasks
	m.Spill = opt.Spill.TakeStats()
	f.Stats.LocalCount = len(out)
	if err := FinishStats(c, TagStats, &f.Stats, m); err != nil {
		return nil, f.Stats, err
	}
	return out, f.Stats, nil
}
