package core

import (
	"slices"
	"time"

	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/exchange"
	"hssort/internal/par"
	"hssort/internal/spill"
)

// Strategy determines splitters: the only part of a sort that differs
// between HSS, the sample sorts, classic histogram sort, radix
// partitioning and over-partitioning. Every rank
// calls it with its locally sorted keys, the global key count n and the
// skeleton's Options — defaults applied, validated once — and every rank
// must return the same opt.Buckets-1 splitters in non-decreasing opt.Cmp
// order (none when opt.Buckets == 1 or n == 0). Its messages use the
// StrategyTags tags from TagStrategy. e is the world of a flat sort, and
// level 2 of a two-level sort runs it on a row group (see Levels).
type Strategy[E any] func(e comm.Endpoint, sorted []E, n int64, opt Options[E]) ([]E, SplitterInfo, error)

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
// (DetermineSplitters), configured by the Schedule and Rounds block of
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
// on. BackHalf moves the runs; a splitter plan stops here. In a
// two-level sort the front half has already moved the keys once, and the
// runs are level 2's.
type Front[K any] struct {
	// opt is the Options the front half ran with, defaults applied.
	opt Options[K]
	// pool is the rank's compute pool; the data movement keeps using it
	// so its counters cover the whole sort.
	pool *par.Pool
	// runs[b] is this rank's share of bucket b, or at two levels of
	// bucket b of its group. The runs alias the sorted input (at two
	// levels, the merged level-1 keys).
	runs [][]K
	// Splitters are the Buckets-1 bucket boundaries — nil on the prefix
	// plane, where they exist only as SplitterCodes. At two levels they
	// are this rank's group's until GatherSplitters puts level 1's at
	// multiples of the group width and each group's in the gaps between
	// them.
	Splitters []K
	// SplitterCodes are the boundaries' codes, on every coded plane.
	SplitterCodes []codes.Code
	// Finalized is the strategy's SplitterInfo.Finalized (at two levels,
	// every level's and group's).
	Finalized bool
	// Stats is the rank's own record so far: N, Buckets, Workers, the
	// protocol counts (Rounds, SamplePerRound, TotalSample,
	// CoveragePerRound), and this rank's LocalSort, Splitter,
	// SplitterBytes, PrefixCollisions and the partition's share of
	// Exchange (at two levels also level 1's exchange and merge). The
	// back half adds its own and reduces it with finishStats.
	Stats Stats

	// ex, tag and owner are where BackHalf routes runs: the world on
	// tagExchange under opt.Owner, or at two levels the row group on
	// tagExchange+1.
	ex    comm.StreamEndpoint
	tag   comm.Tag
	owner func(int) int
	// first is the first bucket of this rank's group at two levels, -1
	// in a flat sort; col is the rank's column group and l1, l1Codes
	// level 1's splitters, for GatherSplitters.
	first   int
	col     comm.Endpoint
	l1      []K
	l1Codes []codes.Code
	// imbalance is the bucket imbalance of runs once measured, 0 before.
	imbalance float64
}

// FrontHalf is the skeleton up to the point where data moves: local sort
// → global key count → splitters (determined by the strategy, or
// injected and checked by round 0) → partition. Options.PrefixCode
// switches the local sort, the strategy's input and the partition cuts
// to the prefix plane; the steps are the same. Where Levels says so, the
// steps after the key count run twice, at two levels (twoLevels).
func FrontHalf[K any](c *comm.Comm, local []K, opt Options[K], s Strategies[K]) (*Front[K], error) {
	raw := opt
	opt, err := opt.withDefaults(c.Size())
	if err != nil {
		return nil, err
	}
	pool := par.New(opt.Workers)
	f := &Front[K]{opt: opt, pool: pool, Finalized: true, ex: c, tag: tagExchange, owner: opt.Owner, first: -1}
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
		f.Stats.PrefixCollisions = codes.TieBreakPar(localCodes, local, opt.Cmp, pool)
	} else if localCodes, err = spill.LocalSortScratch(opt.Spill, local, opt.Code, opt.Cmp, pool, opt.Scratch.MergeScratch().BorrowCodes, opt.Spare); err != nil {
		return nil, err
	}
	f.Stats.LocalSort = time.Since(t0)

	if err := f.count(c, local); err != nil {
		return nil, err
	}
	if g, w, two := Levels(c.Size(), f.Stats.N, raw); two {
		err = f.twoLevels(c, local, localCodes, raw, s, g, w)
	} else {
		err = f.cut(c, c, local, localCodes, s)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// count all-reduces the key count over e into Stats.N.
func (f *Front[K]) count(e comm.Endpoint, local []K) error {
	n, err := collective.AllReduce(e, tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err == nil {
		f.Stats.N = n[0]
	}
	return err
}

// cut is the front half after the key count, over e under f.opt: the
// splitters and the partition. Its bytes are read off the world c.
func (f *Front[K]) cut(e comm.Endpoint, c *comm.Comm, local []K, localCodes []codes.Code, s Strategies[K]) error {
	opt := f.opt

	// Phase 2: splitters. The prefix plane determines them in code space
	// and partitions by those codes directly; every other coded plane
	// extracts the splitter keys' codes (exact: a splitter's code is a
	// pure function of the key).
	determine := func() error {
		var info SplitterInfo
		var err error
		if opt.PrefixCode {
			f.Splitters = nil
			f.SplitterCodes, info, err = s.Codes(e, localCodes, f.Stats.N, opt.inCodeSpace())
		} else {
			f.Splitters, info, err = s.Keys(e, local, f.Stats.N, opt)
		}
		f.Finalized = info.Finalized
		f.Stats.Rounds = info.Rounds
		f.Stats.SamplePerRound = info.SamplePerRound
		f.Stats.TotalSample = info.TotalSample
		f.Stats.CoveragePerRound = info.CoveragePerRound
		return err
	}
	partition := func() {
		f.imbalance = 0
		if localCodes == nil {
			f.runs = exchange.PartitionPar(local, f.Splitters, opt.Cmp, f.pool)
			return
		}
		if f.Splitters != nil {
			f.SplitterCodes = codes.Extract(f.Splitters, opt.Code)
		}
		f.runs = exchange.PartitionByCodePar(local, localCodes, f.SplitterCodes, f.pool)
	}
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	if opt.Splitters != nil {
		// A seed crosses an API boundary: re-establish the sorted
		// invariant exchange.Partition relies on, once per sort.
		exchange.ValidateSplitters(opt.Splitters, opt.Cmp)
		f.Splitters = opt.Splitters
	} else if err := determine(); err != nil {
		return err
	}
	f.Stats.Splitter += time.Since(t1)

	t2 := time.Now()
	partition()
	f.Stats.Exchange += time.Since(t2)

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
		imb, loads, err := f.measure(e, f.runs)
		if err != nil {
			return err
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
				return err
			}
			partition()
		}
		f.Stats.Splitter += time.Since(t3)
	}
	f.Stats.SplitterBytes += c.Counters().BytesSent - bytes0
	return nil
}

// twoLevels is the front half of a sort in two levels, g groups of w
// consecutive ranks (Levels), after the key count — §6.1's partitioning
// across groups first, on real messages. Level 1 cuts the world's keys
// into g group buckets at ε₁ and sends each run to the rank of its group
// that shares this rank's column (ranks equal mod w): g−1 messages.
// Level 2 cuts each group's merged keys into w buckets at ε₂ over the
// row group, with no second local sort, leaving runs for BackHalf's row
// exchange: w−1 messages. ε₁ = ε₂ = √(1+ε) − 1, so (1+ε₁)(1+ε₂) = 1+ε
// bounds every rank's share as the flat sort's ε does. Each level seeks
// g−1 or w−1 splitters where the flat sort seeks p−1.
//
// A seed's p−1 splitters split the same way: every w-th seeds level 1,
// and each group's w−1 between them seed its level 2 once level 1's seed
// stands (after a rejected one they bound the wrong keys). Each level's
// round 0 checks its own 1+ε_level. One all-gather over the column then
// gives every rank every group's protocol counts; the groups' splitters
// follow only for a plan (GatherSplitters).
//
// Level 1's merged keys, which level 2's runs alias, live only until
// BackHalf merges those into the fresh output, so they are held in rank
// scratch (exchange.Scratch.MergeHeld).
func (f *Front[K]) twoLevels(c *comm.Comm, local []K, localCodes []codes.Code, raw Options[K], s Strategies[K], g, w int) error {
	opt := f.opt
	grp := c.Rank() / w
	f.first = grp * w
	row, err := collective.NewGroup(c, ranks(f.first, 1, w))
	if err != nil {
		return err
	}
	col, err := collective.NewGroup(c, ranks(c.Rank()%w, w, g))
	if err != nil {
		return err
	}
	level := func(buckets int, seed []K, p int) (err error) {
		o := raw
		o.Buckets, o.Epsilon, o.Splitters = buckets, levelEpsilon(opt.Epsilon), seed
		f.opt, err = o.withDefaults(p)
		return err
	}

	var seed []K
	if opt.Splitters != nil {
		for k := 1; k < g; k++ {
			seed = append(seed, opt.Splitters[k*w-1])
		}
	}
	if err := level(g, seed, c.Size()); err != nil {
		return err
	}
	if err := f.cut(c, c, local, localCodes, s); err != nil {
		return err
	}
	l1 := *f
	bytes0, t0 := c.Counters().BytesSent, time.Now()
	recv, err := exchange.Exchange(col, tagExchange, f.runs, exchange.ContiguousOwner(g, g))
	if err != nil {
		return err
	}
	f.Stats.Exchange += time.Since(t0)
	f.Stats.ExchangeBytes += c.Counters().BytesSent - bytes0
	t0 = time.Now()
	merged := opt.Scratch.MergeHeld(recv, opt.Cmp, opt.Code, opt.PrefixCode, f.pool)
	f.Stats.Merge += time.Since(t0)

	seed = nil
	if opt.Splitters != nil && l1.Stats.Rounds == 0 {
		seed = opt.Splitters[f.first : f.first+w-1]
	}
	if err := level(w, seed, w); err != nil {
		return err
	}
	if localCodes != nil {
		localCodes = codes.ExtractPar(merged, opt.Code, f.pool)
	}
	f.Finalized, f.Stats.Rounds, f.Stats.SamplePerRound, f.Stats.TotalSample, f.Stats.CoveragePerRound = true, 0, nil, 0, nil
	if err := f.count(row, merged); err != nil {
		return err
	}
	if err := f.cut(row, c, merged, localCodes, s); err != nil {
		return err
	}

	// One gather over the column to its root, which merges every
	// group's level-2 counts into level 1's, and a broadcast of the whole
	// sort's. The splitters stay with their groups until a plan asks for
	// them (GatherSplitters).
	bytes0, t0 = c.Counters().BytesSent, time.Now()
	parts, err := collective.Gatherv(col, 0, tagSeed, levelCounts(f.Finalized, f.Stats))
	if err != nil {
		return err
	}
	var counts []int64
	if parts != nil {
		counts = mergeCounts(levelCounts(l1.Finalized, l1.Stats), parts)
	}
	if counts, err = collective.Bcast(col, 0, tagSeed+1, counts); err != nil {
		return err
	}
	f.Stats.Splitter += time.Since(t0)
	f.Stats.SplitterBytes += c.Counters().BytesSent - bytes0

	f.opt, f.ex, f.tag, f.owner, f.imbalance = opt, row, tagExchange+1, f.opt.Owner, 0
	f.col, f.l1, f.l1Codes = col, l1.Splitters, l1.SplitterCodes
	f.Stats.N = l1.Stats.N // level 2's count left the group's
	sample, coverage := splitCounts(counts)
	f.Finalized, f.Stats.Rounds = counts[0] == 1, int(counts[1])
	// (Copies: a zero-copy transport hands every rank the same slice.)
	f.Stats.SamplePerRound, f.Stats.CoveragePerRound = append([]int64(nil), sample...), append([]int64(nil), coverage...)
	f.Stats.TotalSample = 0
	for _, n := range sample {
		f.Stats.TotalSample += n
	}
	return nil
}

// levelCounts lays out one level's protocol counts for the column
// gather: [finalized, rounds, len(sample), sample per round..., coverage
// per round...]. The length word is there because classic histogram
// sort reports rounds without per-round samples, and no baseline reports
// coverage.
func levelCounts(finalized bool, st Stats) []int64 {
	return slices.Concat([]int64{boolInt(finalized), int64(st.Rounds), int64(len(st.SamplePerRound))}, st.SamplePerRound, st.CoveragePerRound)
}

// splitCounts returns the per-round lists of a levelCounts vector.
func splitCounts(counts []int64) (sample, coverage []int64) {
	k := 3 + counts[2]
	return counts[3:k], counts[k:]
}

// mergeCounts merges the column's level-2 counts, one levelCounts vector
// per group, into level 1's l1: finalized if every level and group is,
// level 1's rounds plus the most any group ran, and per round level 1's
// samples and coverage followed by level 2's summed over the groups.
func mergeCounts(l1 []int64, parts [][]int64) []int64 {
	fin, rounds := l1[0], int64(0)
	var sample, coverage []int64
	for _, pt := range parts {
		fin &= pt[0]
		rounds = max(rounds, pt[1])
		s, c := splitCounts(pt)
		sample, coverage = addAt(sample, s), addAt(coverage, c)
	}
	s1, c1 := splitCounts(l1)
	return slices.Concat([]int64{fin, l1[1] + rounds, int64(len(s1) + len(sample))}, s1, sample, c1, coverage)
}

// addAt adds xs into sum index by index, growing sum to fit.
func addAt(sum, xs []int64) []int64 {
	for i, x := range xs {
		if i == len(sum) {
			sum = append(sum, 0)
		}
		sum[i] += x
	}
	return sum
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// GatherSplitters makes Splitters (SplitterCodes on the prefix plane)
// all Buckets-1 boundaries, as a plan needs them. A flat sort has them
// already; at two levels the front half leaves each group holding its
// own, and this is one gather of the groups' splitters to the column's
// root, which interleaves them with level 1's, and a broadcast. Every
// rank must join.
func (f *Front[K]) GatherSplitters(c *comm.Comm) error {
	if f.first < 0 {
		return nil
	}
	bytes0, t0 := c.Counters().BytesSent, time.Now()
	var err error
	if f.opt.PrefixCode {
		f.SplitterCodes, err = gatherSplitters(f.col, f.l1Codes, f.SplitterCodes, f.opt.Buckets/f.col.Size())
	} else if f.Splitters, err = gatherSplitters(f.col, f.l1, f.Splitters, f.opt.Buckets/f.col.Size()); err == nil && f.opt.Code != nil {
		f.SplitterCodes = codes.Extract(f.Splitters, f.opt.Code)
	}
	f.Stats.Splitter += time.Since(t0)
	f.Stats.SplitterBytes += c.Counters().BytesSent - bytes0
	return err
}

// gatherSplitters is GatherSplitters on one plane: mine are this rank's
// group's splitters, l1 level 1's and w the group width.
func gatherSplitters[T any](col comm.Endpoint, l1, mine []T, w int) ([]T, error) {
	parts, err := collective.Gatherv(col, 0, tagSeed, mine)
	if err != nil {
		return nil, err
	}
	var all []T
	if parts != nil {
		all = interleave(l1, parts, w)
	}
	return collective.Bcast(col, 0, tagSeed+1, all)
}

// interleave assembles a flat plan's p−1 splitters from level 1's g−1
// and each group's w−1: level 1's sit at multiples of w. A group with no
// keys determined none and repeats the level-1 splitter below it (the
// first group, the one above), which keeps the plan sorted.
func interleave[T any](l1 []T, groups [][]T, w int) []T {
	out := make([]T, 0, len(groups)*w-1)
	for k, sp := range groups {
		if k > 0 {
			out = append(out, l1[k-1])
		}
		out = append(out, sp...)
		for range w - 1 - len(sp) {
			out = append(out, l1[max(k-1, 0)])
		}
	}
	return out
}

// ranks lists n world ranks from first, stride apart.
func ranks(first, stride, n int) []int {
	rs := make([]int, n)
	for i := range rs {
		rs[i] = first + i*stride
	}
	return rs
}

// measure all-reduces the bucket loads of runs over e (the round-0 tag)
// and records the imbalance they amount to.
func (f *Front[K]) measure(e comm.Endpoint, runs [][]K) (float64, []int64, error) {
	imb, loads, err := exchange.RunsImbalance(e, tagSeed, runs)
	f.imbalance = imb
	return imb, loads, err
}

// BucketImbalance returns the bucket-level imbalance max·B/N the
// partition achieves before any data moves — directly comparable to the
// paper's (1+ε) target and, less one, the achieved ε a splitter plan
// reports. An accepted seed's round 0 already measured it in a flat sort;
// otherwise this is one all-reduce of the bucket loads over the world —
// at two levels of all p buckets, each group's placed at its offset —
// which every rank must join.
func (f *Front[K]) BucketImbalance(c *comm.Comm) (float64, error) {
	if f.imbalance != 0 {
		return f.imbalance, nil
	}
	runs := f.runs
	if f.first >= 0 {
		runs = make([][]K, f.opt.Buckets)
		copy(runs[f.first:], f.runs)
	}
	imb, _, err := f.measure(c, runs)
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
		round0:    o.round0,
		maxRounds: o.maxRounds,
	}
	if o.round0 != nil {
		oc.Splitters = codes.Extract(o.Splitters, o.Code)
	}
	return oc
}

// BackHalf is the rest of the sort: the all-to-all exchange and k-way
// merge — fused by exchange.ExchangeMerge, which runs either the
// materializing path or (with Options.ChunkKeys > 0 or a Spill manager)
// the streaming pipeline that overlaps the merge with the exchange
// tail; at two levels over the row group — then the closing stats
// all-reduce. It returns the rank's globally sorted partition.
func (f *Front[K]) BackHalf(c *comm.Comm) ([]K, Stats, error) {
	opt := f.opt
	bytes0 := c.Counters().BytesSent
	out, exchangeTime, mergeTime, sst, err := exchange.ExchangeMerge(
		f.ex, f.tag, f.runs, f.owner, opt.Cmp, opt.Code,
		exchange.StreamOptions{ChunkKeys: opt.ChunkKeys, Pool: f.pool, Tie: opt.PrefixCode, Spill: opt.Spill}, opt.Scratch)
	if err != nil {
		return nil, f.Stats, err
	}
	st := &f.Stats
	st.ExchangeBytes += c.Counters().BytesSent - bytes0
	st.Exchange += exchangeTime
	st.Merge += mergeTime
	st.ExchangeOverlap, st.PeakInFlightBytes = sst.Overlap, sst.PeakInFlight
	pc := f.pool.Counters()
	st.ParSpawned, st.ParTasks = pc.Spawned, pc.Tasks
	sp := opt.Spill.TakeCounters()
	st.SpilledBytes, st.SpillFileBytes, st.SpillReads, st.PeakResidentBytes = sp.SpilledBytes, sp.FileBytes, sp.Reads, sp.PeakResident
	if err := finishStats(c, tagStats, st, len(out)); err != nil {
		return nil, f.Stats, err
	}
	return out, f.Stats, nil
}
