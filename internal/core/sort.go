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

// Sort runs the full HSS pipeline on this rank's local keys and returns
// the rank's globally sorted partition: local sort → splitter
// determination → all-to-all exchange → k-way merge (§6.1.2). Every rank
// of the world must call Sort with the same Options. The input slice is
// sorted in place and its storage re-used (the Coder plane instead
// leaves the input untouched); callers must not reuse it.
func Sort[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, Stats, error) {
	opt, err := opt.withDefaults(c.Size())
	if err != nil {
		return nil, Stats{}, err
	}
	if opt.Coder != nil {
		return sortViaCodes(c, local, opt)
	}
	if opt.PrefixCode {
		return sortPrefix(c, local, opt)
	}
	base := opt.BaseTag
	pool := par.New(opt.Workers)
	var stats Stats
	stats.Buckets = opt.Buckets
	stats.Workers = pool.Workers()

	// Phase 1: local sort (embarrassingly parallel, §6.1.2) — the
	// comparator-free radix plane when a code extractor is available,
	// fanned over this rank's worker pool; over a memory budget,
	// spill.LocalSort switches to the scratch-free in-place kernel
	// with identical output. Never touches disk.
	t0 := time.Now()
	localCodes, err := spill.LocalSort(opt.Spill, local, opt.Code, opt.Cmp, pool)
	if err != nil {
		return nil, stats, err
	}
	localSort := time.Since(t0)

	// Global key count.
	nVec, err := collective.AllReduce(c, base+tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err != nil {
		return nil, stats, err
	}
	stats.N = nVec[0]

	// Phase 2: splitter determination — skipped entirely when a stored
	// plan injects the splitters (the prepare-once/sort-many operation
	// phase).
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	splitters := opt.Splitters
	if splitters != nil {
		// Injected splitters cross an API boundary: re-establish the
		// sorted invariant exchange.Partition relies on, once per sort.
		exchange.ValidateSplitters(splitters, opt.Cmp)
	} else {
		var info SplitterInfo
		splitters, info, err = DetermineSplitters(c, local, stats.N, opt)
		if err != nil {
			return nil, stats, err
		}
		stats.Rounds = info.Rounds
		stats.SamplePerRound = info.SamplePerRound
		stats.TotalSample = info.TotalSample
	}
	splitterTime := time.Since(t1)
	splitterBytes := c.Counters().BytesSent - bytes0

	partition := func(sp []K) [][]K {
		if localCodes != nil {
			return exchange.PartitionByCodePar(local, localCodes, codes.Extract(sp, opt.Code), pool)
		}
		return exchange.PartitionPar(local, sp, opt.Cmp, pool)
	}
	t2 := time.Now()
	runs := partition(splitters)
	partitionTime := time.Since(t2)

	// Staleness guard: a stored plan is only as good as the distribution
	// it was histogrammed on. When armed, measure the bucket imbalance
	// the stale splitters would produce and re-histogram if it exceeds
	// the bound — the self-improving sorter's fallback to its training
	// phase. The guard (and any replan) is splitter-determination work.
	if opt.Splitters != nil && opt.StaleBound > 0 {
		t3 := time.Now()
		imb, _, err := exchange.RunsImbalance(c, base+tagStale, runs)
		if err != nil {
			return nil, stats, err
		}
		if imb > opt.StaleBound {
			stats.Replanned = true
			splitters, info, err := DetermineSplitters(c, local, stats.N, opt)
			if err != nil {
				return nil, stats, err
			}
			stats.Rounds = info.Rounds
			stats.SamplePerRound = info.SamplePerRound
			stats.TotalSample = info.TotalSample
			runs = partition(splitters)
		}
		splitterTime += time.Since(t3)
		splitterBytes = c.Counters().BytesSent - bytes0
	}

	// Phase 3+4: data exchange and k-way merge — fused by
	// ExchangeMerge, which runs either the materializing path or (with
	// Options.ChunkKeys > 0) the streaming pipeline that overlaps the
	// merge with the exchange tail.
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
	if err := FinishStats(c, base+tagStats, &stats, PhaseTimes{
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

// sortPrefix is the prefix plane (Options.PrefixCode): the code
// decoration is a non-injective order-preserving prefix of the key, so
// every code-keyed kernel runs as on the decorated plane, with a
// comparator tie-break at exactly the points where distinct keys can
// collide on a code — after the radix local sort (TieBreakPar) and
// inside the merges (StreamOptions.Tie). Partition needs no repair:
// lower-bound code cuts keep every occurrence of a code value in one
// bucket, and tie-broken runs concatenate in comparator order. Splitter
// determination runs entirely in code space — splitter traffic stays
// fixed-size code points regardless of key length, and on adversarial
// shared-prefix input the candidate pool saturates (every probe is the
// same code) so the protocol stops after its stagnation window instead
// of looping: SplitterInfo.Finalized reports false and the achieved
// imbalance is whatever the code plane could express.
func sortPrefix[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, Stats, error) {
	base := opt.BaseTag
	pool := par.New(opt.Workers)
	var stats Stats
	stats.Buckets = opt.Buckets
	stats.Workers = pool.Workers()

	// Phase 1: radix local sort on the code decoration, then restore
	// full comparator order within equal-code spans.
	t0 := time.Now()
	localCodes := codes.SortByCodePar(local, opt.Code, pool)
	collisions := codes.TieBreakPar(localCodes, local, opt.Cmp, pool)
	localSort := time.Since(t0)

	nVec, err := collective.AllReduce(c, base+tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err != nil {
		return nil, stats, err
	}
	stats.N = nVec[0]

	// Phase 2: splitter determination in code space. Injected splitters
	// are projected to their codes — re-extraction is exact because a
	// splitter's code is a pure function of the key.
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	var spCodes []codes.Code
	if opt.Splitters != nil {
		spCodes = codes.Extract(opt.Splitters, opt.Code)
		exchange.ValidateSplitters(spCodes, codes.Compare)
	} else {
		var info SplitterInfo
		spCodes, info, err = DetermineSplitters(c, localCodes, stats.N, prefixDetOptions(opt))
		if err != nil {
			return nil, stats, err
		}
		stats.Rounds = info.Rounds
		stats.SamplePerRound = info.SamplePerRound
		stats.TotalSample = info.TotalSample
	}
	splitterTime := time.Since(t1)
	splitterBytes := c.Counters().BytesSent - bytes0

	t2 := time.Now()
	runs := exchange.PartitionByCodePar(local, localCodes, spCodes, pool)
	partitionTime := time.Since(t2)

	// Staleness guard, as on the comparator plane: replanning runs the
	// code-space determination again.
	if opt.Splitters != nil && opt.StaleBound > 0 {
		t3 := time.Now()
		imb, _, err := exchange.RunsImbalance(c, base+tagStale, runs)
		if err != nil {
			return nil, stats, err
		}
		if imb > opt.StaleBound {
			stats.Replanned = true
			var info SplitterInfo
			spCodes, info, err = DetermineSplitters(c, localCodes, stats.N, prefixDetOptions(opt))
			if err != nil {
				return nil, stats, err
			}
			stats.Rounds = info.Rounds
			stats.SamplePerRound = info.SamplePerRound
			stats.TotalSample = info.TotalSample
			runs = exchange.PartitionByCodePar(local, localCodes, spCodes, pool)
		}
		splitterTime += time.Since(t3)
		splitterBytes = c.Counters().BytesSent - bytes0
	}

	// Phase 3+4: exchange and tie-aware merge.
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
	if err := FinishStats(c, base+tagStats, &stats, PhaseTimes{
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

// prefixDetOptions projects prefix-plane options onto code space for
// splitter determination: the protocol — sampling draws, histogram
// ranks, splitter choices — runs over this rank's sorted code
// decoration under raw integer comparison, exactly as the bijective
// plane's determination does.
func prefixDetOptions[K any](opt Options[K]) Options[codes.Code] {
	return Options[codes.Code]{
		Cmp:               codes.Compare,
		Code:              codes.ExtractCode,
		Epsilon:           opt.Epsilon,
		Buckets:           opt.Buckets,
		Owner:             opt.Owner,
		Schedule:          opt.Schedule,
		Rounds:            opt.Rounds,
		MaxRounds:         opt.MaxRounds,
		OversampleFactor:  opt.OversampleFactor,
		Seed:              opt.Seed,
		Approx:            opt.Approx,
		ApproxSize:        opt.ApproxSize,
		Workers:           opt.Workers,
		BaseTag:           opt.BaseTag,
		PipelineChunk:     opt.PipelineChunk,
		PipelineThreshold: opt.PipelineThreshold,
		OnRound:           opt.OnRound,
	}
}

// sortViaCodes is the Coder plane: encode this rank's keys once, run the
// identical pipeline on raw code points (where the compute phases
// specialize to radix sort, branch-free searches and code-keyed merges,
// and the exchange moves codes, not keys), and decode the merged
// partition once at the end. The protocol — sampling draws, histogram
// updates, splitter choices, bucket cuts, merge tie-breaks — is a
// function of key order only, and the coder preserves it exactly, so the
// decoded output is rank-identical to the comparator plane's.
func sortViaCodes[K any](c *comm.Comm, local []K, opt Options[K]) ([]K, Stats, error) {
	pool := par.New(opt.Workers)
	enc := codes.EncodeIntoPar(opt.Coder, local, nil, pool)
	var splitters []codes.Code
	if opt.Splitters != nil {
		splitters = codes.EncodeSlice(opt.Coder, opt.Splitters)
	}
	out, stats, err := Sort(c, enc, Options[codes.Code]{
		Splitters:         splitters,
		StaleBound:        opt.StaleBound,
		Cmp:               codes.Compare,
		Code:              codes.ExtractCode,
		Epsilon:           opt.Epsilon,
		Buckets:           opt.Buckets,
		Owner:             opt.Owner,
		Schedule:          opt.Schedule,
		Rounds:            opt.Rounds,
		MaxRounds:         opt.MaxRounds,
		OversampleFactor:  opt.OversampleFactor,
		Seed:              opt.Seed,
		Approx:            opt.Approx,
		ApproxSize:        opt.ApproxSize,
		ChunkKeys:         opt.ChunkKeys,
		Workers:           opt.Workers,
		BaseTag:           opt.BaseTag,
		PipelineChunk:     opt.PipelineChunk,
		PipelineThreshold: opt.PipelineThreshold,
		OnRound:           opt.OnRound,
		Spill:             opt.Spill,
	})
	if err != nil {
		return nil, stats, err
	}
	return codes.DecodeSlicePar(opt.Coder, out, pool), stats, nil
}
