package hssort

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hssort/internal/bitonic"
	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/histsort"
	"hssort/internal/keycoder"
	"hssort/internal/nodesort"
	"hssort/internal/overpartition"
	"hssort/internal/par"
	"hssort/internal/radix"
	"hssort/internal/samplesort"
	"hssort/internal/spill"
	"hssort/internal/tagging"
)

// Sorter is a long-lived sorting engine: New validates the Config once,
// constructs the transport and the per-rank worker world once, and the
// resulting Sorter is then called repeatedly — Sort for full sorts,
// Plan/SortWithPlan for the prepare-once/sort-many split — with the
// goroutine pool, exchange chunk buffers, merge trees and code-plane
// scratch reused across calls. One-shot helpers (the package-level Sort,
// SortFunc, SortKV) are thin wrappers over a throwaway engine.
//
// A Sorter serializes its calls (concurrent Sort calls run one after
// another over the same simulated machine) and must be released with
// Close, which stops the worker goroutines.
//
// Every method takes a context: cancellation or deadline expiry aborts
// the in-flight sort on all simulated ranks — mid-histogram, mid-exchange,
// wherever they are — through the communication runtime's abort
// machinery, and the call returns ctx.Err(). The engine stays usable
// afterwards.
type Sorter[K any] struct {
	cfg     Config
	compare func(K, K) int
	coder   keycoder.Coder[K]
	code    func(K) uint64 // decorated-plane extractor (records) or prefix extractor
	prefix  bool           // code is a non-injective prefix extractor (NewBytes)
	isNaN   func(K) bool   // non-nil only for float keys with a coder
	pool    *comm.Pool
	scratch []*rankScratch[K]
	spills  []*spill.Manager // per-rank spill managers; nil when MemoryBudget is 0, nil entries for ranks other processes host

	mu     sync.Mutex
	closed bool
}

// rankScratch is one simulated rank's reusable buffers.
type rankScratch[K any] struct {
	enc      []codes.Code                 // bijective-plane encode buffer
	exch     exchange.Scratch[K]          // comparator/decorated-plane exchange state
	exchCode exchange.Scratch[codes.Code] // bijective-plane exchange state
}

// ErrSorterClosed is returned by Sorter methods after Close.
var ErrSorterClosed = errors.New("hssort: sorter closed")

// New creates a Sorter for ordered keys. Config.Procs is required (the
// worker world is sized at construction); every other field is
// validated here, once, instead of on every sort.
func New[K cmp.Ordered](cfg Config) (*Sorter[K], error) {
	var isNaN func(K) bool
	var zero K
	switch any(zero).(type) {
	case float64, float32:
		isNaN = func(k K) bool { return k != k }
	}
	return newSorter(cfg, cmp.Compare[K], coderFor[K](), nil, isNaN, false)
}

// NewFunc creates a Sorter with an explicit comparator, for key types
// without a built-in order. The HistogramSort and Radix algorithms
// additionally need key-space arithmetic and are unavailable unless
// Config.Coder supplies it.
func NewFunc[K any](cfg Config, compare func(K, K) int) (*Sorter[K], error) {
	if compare == nil {
		return nil, fmt.Errorf("hssort: comparator is required")
	}
	return newSorter[K](cfg, compare, nil, nil, nil, false)
}

// newSorter is the shared constructor: resolve the coder, validate the
// configuration once, build the transport and the worker pool. prefix
// marks code as a non-injective prefix extractor (the NewBytes plane);
// it changes which algorithms are admissible and puts the prefix
// tie-break pipelines in play.
func newSorter[K any](cfg Config, compare func(K, K) int, builtin keycoder.Coder[K], code func(K) uint64, isNaN func(K) bool, prefix bool) (*Sorter[K], error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("hssort: at least one shard is required")
	}
	coder, err := resolveCoder(cfg, builtin)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Minute
	}
	if cfg.PlanStaleness < 0 {
		return nil, fmt.Errorf("hssort: PlanStaleness %v < 0", cfg.PlanStaleness)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("hssort: Workers %d < 0", cfg.Workers)
	}
	switch cfg.Algorithm {
	case HSS, HSSOneRound, HSSTheoretical, SampleSortRegular, SampleSortRandom,
		HistogramSort, Bitonic, Radix, NodeHSS, OverPartition:
	default:
		return nil, fmt.Errorf("hssort: unknown algorithm %v", cfg.Algorithm)
	}
	if cfg.Algorithm == NodeHSS {
		if cfg.CoresPerNode < 1 {
			return nil, fmt.Errorf("hssort: NodeHSS requires CoresPerNode >= 1")
		}
		if cfg.Procs%cfg.CoresPerNode != 0 {
			return nil, fmt.Errorf("hssort: Procs %d not a multiple of CoresPerNode %d", cfg.Procs, cfg.CoresPerNode)
		}
	}
	if prefix {
		if cfg.Algorithm == Radix {
			return nil, fmt.Errorf("hssort: Radix needs a bijective key coder; byte-string keys carry only a prefix code")
		}
		if cfg.Algorithm == HistogramSort && cfg.CodePath == CodePathOff {
			return nil, fmt.Errorf("hssort: HistogramSort on byte-string keys runs probe bisection over the prefix code plane, which CodePathOff disables")
		}
	}
	switch cfg.Algorithm {
	case HistogramSort, Radix:
		if coder == nil && !prefix {
			return nil, fmt.Errorf("hssort: %v requires an integer or float key type", cfg.Algorithm)
		}
	}
	if cfg.TagDuplicates {
		switch cfg.Algorithm {
		case HSS, HSSOneRound, HSSTheoretical, SampleSortRegular, SampleSortRandom, NodeHSS:
		default:
			return nil, fmt.Errorf("hssort: TagDuplicates is not supported by %v", cfg.Algorithm)
		}
		if cfg.CodePath == CodePathOn {
			return nil, fmt.Errorf("hssort: CodePathOn is incompatible with TagDuplicates (tagged records carry no order-preserving 64-bit code)")
		}
	} else if cfg.CodePath == CodePathOn {
		useBijective := coder != nil && bijectiveCodePlane(cfg.Algorithm)
		useRecord := !useBijective && !prefix && code != nil && recordCodePlane(cfg.Algorithm)
		usePrefix := prefix && code != nil && prefixCodePlane(cfg.Algorithm)
		if !useBijective && !useRecord && !usePrefix {
			if coder == nil && code == nil {
				return nil, fmt.Errorf("hssort: CodePathOn, but no order-preserving coder is known for the key type (set Config.Coder)")
			}
			return nil, fmt.Errorf("hssort: CodePathOn, but %v has no code-plane support", cfg.Algorithm)
		}
	}
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("hssort: MemoryBudget %d < 0", cfg.MemoryBudget)
	}
	if cfg.SpillDir != "" && cfg.MemoryBudget == 0 {
		return nil, fmt.Errorf("hssort: SpillDir is set but MemoryBudget is 0 (the out-of-core plane is off)")
	}
	if cfg.MemoryBudget > 0 {
		switch cfg.Algorithm {
		case HSS, HSSOneRound, HSSTheoretical, SampleSortRegular, SampleSortRandom, HistogramSort, NodeHSS:
		default:
			return nil, fmt.Errorf("hssort: MemoryBudget is not supported by %v", cfg.Algorithm)
		}
		if cfg.TagDuplicates {
			return nil, fmt.Errorf("hssort: MemoryBudget is incompatible with TagDuplicates (tagged records are per-call transient types the spill plane cannot persist)")
		}
		if prefix {
			return nil, fmt.Errorf("hssort: MemoryBudget is not supported on the byte-string prefix plane (variable-length keys cannot be framed into fixed-size spill runs)")
		}
		if !spill.Spillable[K]() {
			var zero K
			return nil, fmt.Errorf("hssort: MemoryBudget requires a fixed-size key type without pointers, got %T", zero)
		}
	}
	tr, err := newTransport(cfg)
	if err != nil {
		return nil, err
	}
	var spills []*spill.Manager
	if cfg.MemoryBudget > 0 {
		spills = make([]*spill.Manager, cfg.Procs)
		// Only the ranks this process hosts get a manager: a multi-process
		// TCP worker carries exactly its own rank, everything else
		// co-hosts the whole world.
		lo, hi := 0, cfg.Procs
		if cfg.Transport == TransportTCP && cfg.TCP.Coordinator != "" {
			lo, hi = cfg.TCP.Rank, cfg.TCP.Rank+1
		}
		for r := lo; r < hi; r++ {
			m, err := spill.NewManager(cfg.MemoryBudget, cfg.SpillDir, r)
			if err != nil {
				for _, mm := range spills {
					mm.Close()
				}
				closeTransport(tr)
				return nil, err
			}
			spills[r] = m
		}
	}
	if coder == nil && code == nil {
		isNaN = nil // no code plane to guard
	}
	s := &Sorter[K]{
		cfg:     cfg,
		compare: compare,
		coder:   coder,
		code:    code,
		prefix:  prefix,
		isNaN:   isNaN,
		pool:    comm.NewPool(cfg.Procs, comm.WithTimeout(cfg.Timeout), comm.WithTransport(tr)),
		scratch: make([]*rankScratch[K], cfg.Procs),
		spills:  spills,
	}
	if s.cfg.Workers == 0 {
		// Resolve the default once, against this transport's hosting
		// shape: co-hosted ranks split GOMAXPROCS evenly, a lone TCP rank
		// owns the whole process budget.
		s.cfg.Workers = par.Default(s.pool.HostedRanks())
	}
	for r := range s.scratch {
		s.scratch[r] = &rankScratch[K]{}
	}
	return s, nil
}

// Close stops the engine's worker goroutines, releases its scratch and
// tears down the transport (for the tcp backend: a graceful shutdown
// handshake on every connection, after which no reader/writer
// goroutines remain). It is idempotent; calls after Close return
// ErrSorterClosed.
func (s *Sorter[K]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.pool.Close()
	closeTransport(s.pool.Transport())
	for _, m := range s.spills {
		m.Close() // nil-safe; removes each hosted rank's run directory
	}
}

// Sort sorts shards[i] (the keys initially on simulated processor i)
// and returns the per-processor partitions of the global sorted order,
// exactly like the package-level Sort but over the engine's reused
// machine. The input shards are consumed (locally sorted in place,
// except on the bijective code plane).
func (s *Sorter[K]) Sort(ctx context.Context, shards [][]K) ([][]K, Stats, error) {
	return s.sort(ctx, nil, shards)
}

// SortWithPlan sorts with the splitters of a previously prepared Plan,
// skipping splitter determination entirely: the sort goes straight to
// partition → exchange → merge and Stats.Rounds reads 0. If
// Config.PlanStaleness > 0, the ranks first measure the bucket
// imbalance the stored splitters would produce (one B-length reduction)
// and re-histogram when it exceeds the bound — Stats.Replanned then
// reports that the plan was stale. The plan must come from this
// engine's Plan (or one with identical Procs and bucket geometry).
func (s *Sorter[K]) SortWithPlan(ctx context.Context, plan *Plan[K], shards [][]K) ([][]K, Stats, error) {
	if plan == nil {
		return nil, Stats{}, fmt.Errorf("hssort: nil plan (prepare one with Sorter.Plan)")
	}
	return s.sort(ctx, plan, shards)
}

// sort is the shared engine run: resolve the per-call compute plane
// (the NaN guard may demote it), pick the pipeline, run the worker
// world.
func (s *Sorter[K]) sort(ctx context.Context, plan *Plan[K], shards [][]K) ([][]K, Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Stats{}, ErrSorterClosed
	}
	if len(shards) != s.cfg.Procs {
		return nil, Stats{}, fmt.Errorf("hssort: Config.Procs = %d but %d shards supplied", s.cfg.Procs, len(shards))
	}
	if plan != nil {
		if err := s.checkPlan(plan); err != nil {
			return nil, Stats{}, err
		}
	}
	var planSplitters []K
	if plan != nil {
		planSplitters = plan.Splitters
	}
	useBijective, useRecord, usePrefix, err := s.resolvePlanes(shards, planSplitters)
	if err != nil {
		return nil, Stats{}, err
	}
	if s.cfg.TagDuplicates {
		return s.sortTagged(ctx, shards)
	}
	if useBijective {
		return s.sortCoded(ctx, plan, shards)
	}
	code := s.code
	if !useRecord && !usePrefix {
		code = nil
	}
	return runEngine(ctx, s, plan, shards, s.compare, s.coder, code, usePrefix, scratchPlain)
}

// resolvePlanes picks the per-call compute plane, demoting CodePathAuto
// to the comparator plane (or failing CodePathOn) when the input holds
// NaN float keys — the one ordered value no order-preserving code can
// carry. A stored plan's splitters are scanned too: a plan prepared on
// NaN-bearing data can legitimately carry a NaN splitter, which must
// keep the sort off the code plane even when the shards are NaN-free.
func (s *Sorter[K]) resolvePlanes(shards [][]K, planSplitters []K) (useBijective, useRecord, usePrefix bool, err error) {
	cp, err := guardNaN(s.cfg.CodePath, shards, s.isNaN)
	if err != nil {
		return false, false, false, err
	}
	if planSplitters != nil {
		cp, err = guardNaN(cp, [][]K{planSplitters}, s.isNaN)
		if err != nil {
			return false, false, false, err
		}
	}
	if s.cfg.TagDuplicates {
		return false, false, false, nil
	}
	useBijective = cp != CodePathOff && s.coder != nil && bijectiveCodePlane(s.cfg.Algorithm)
	useRecord = cp != CodePathOff && !useBijective && !s.prefix && s.code != nil && recordCodePlane(s.cfg.Algorithm)
	usePrefix = cp != CodePathOff && s.prefix && s.code != nil && prefixCodePlane(s.cfg.Algorithm)
	return useBijective, useRecord, usePrefix, nil
}

// checkPlan verifies a plan fits this engine's geometry.
func (s *Sorter[K]) checkPlan(plan *Plan[K]) error {
	if s.cfg.TagDuplicates {
		return fmt.Errorf("hssort: splitter plans are not supported with TagDuplicates")
	}
	if !planCapable(s.cfg.Algorithm) {
		return fmt.Errorf("hssort: %v is not splitter-based; plans do not apply", s.cfg.Algorithm)
	}
	if plan.procs == 0 {
		return fmt.Errorf("hssort: plan was not prepared by Sorter.Plan")
	}
	if plan.procs != s.cfg.Procs {
		return fmt.Errorf("hssort: plan prepared for %d procs, engine has %d", plan.procs, s.cfg.Procs)
	}
	if want := s.effectiveBuckets(); plan.Buckets != want {
		return fmt.Errorf("hssort: plan prepared for %d buckets, engine partitions into %d", plan.Buckets, want)
	}
	if len(plan.Splitters) != plan.Buckets-1 {
		return fmt.Errorf("hssort: plan holds %d splitters for %d buckets", len(plan.Splitters), plan.Buckets)
	}
	for i := 1; i < len(plan.Splitters); i++ {
		if s.compare(plan.Splitters[i-1], plan.Splitters[i]) > 0 {
			return fmt.Errorf("hssort: plan splitters are not sorted (index %d)", i)
		}
	}
	return nil
}

// effectiveBuckets is the number of output ranges the engine's
// configuration partitions into: Buckets (default Procs), or the node
// count for NodeHSS.
func (s *Sorter[K]) effectiveBuckets() int {
	if s.cfg.Algorithm == NodeHSS {
		return s.cfg.Procs / s.cfg.CoresPerNode
	}
	if s.cfg.Buckets != 0 {
		return s.cfg.Buckets
	}
	return s.cfg.Procs
}

// planCapable reports whether the algorithm determines splitters — the
// precondition for Plan and SortWithPlan.
func planCapable(a Algorithm) bool {
	switch a {
	case HSS, HSSOneRound, HSSTheoretical, SampleSortRegular, SampleSortRandom, HistogramSort, NodeHSS:
		return true
	}
	return false
}

// scratchMode selects which per-rank scratch slot an engine run uses.
type scratchMode int

const (
	scratchNone  scratchMode = iota // tagged plane: element type differs per call
	scratchPlain                    // comparator/decorated plane (element type K)
)

// runEngine executes one sort over the engine's worker pool: the
// generic core shared by the comparator, decorated and (via sortCoded)
// bijective planes. E is the element type actually sorted.
func runEngine[K, E any](ctx context.Context, s *Sorter[K], plan *Plan[E], shards [][]E, compare func(E, E) int, coder keycoder.Coder[E], code func(E) uint64, prefix bool, mode scratchMode) ([][]E, Stats, error) {
	p := s.cfg.Procs
	outs := make([][]E, p)
	var stats Stats
	err := s.pool.Run(ctx, func(c *comm.Comm) error {
		inj := injection[E]{}
		if plan != nil {
			inj.splitters = plan.Splitters
			inj.stale = s.cfg.PlanStaleness
		}
		if mode == scratchPlain {
			if sc, ok := any(&s.scratch[c.Rank()].exch).(*exchange.Scratch[E]); ok {
				inj.scratch = sc
			}
		}
		inj.spill = s.spillFor(c.Rank())
		out, st, err := dispatch(c, shards[c.Rank()], s.cfg, compare, coder, code, prefix, inj)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		if c.Rank() == 0 {
			stats = fromCore(st)
		}
		return nil
	})
	s.releaseScratch()
	s.resetSpills()
	if err != nil {
		return nil, Stats{}, ctxErr(ctx, err)
	}
	total := s.pool.Transport().TotalCounters()
	stats.TotalMsgs = total.MsgsSent
	stats.TotalBytes = total.BytesSent
	return outs, stats, nil
}

// releaseScratch drops every rank's scratch references to the last
// input once the worker world has joined (the earliest point at which
// clearing the shared chunk views is safe — see exchange.Scratch.Release),
// so a parked engine does not pin the data of its last sort.
func (s *Sorter[K]) releaseScratch() {
	for _, sc := range s.scratch {
		sc.exch.Release()
		sc.exchCode.Release()
	}
}

// spillFor returns rank r's spill manager, nil when the out-of-core
// plane is off or another process hosts r.
func (s *Sorter[K]) spillFor(r int) *spill.Manager {
	if s.spills == nil {
		return nil
	}
	return s.spills[r]
}

// resetSpills zeroes every hosted rank's spill accounting and removes
// run files a failed or aborted sort left behind, so each sort starts
// from a clean directory and fresh counters. Runs after the worker
// world has joined, like releaseScratch.
func (s *Sorter[K]) resetSpills() {
	for _, m := range s.spills {
		m.Reset() // nil-safe
	}
}

// ctxErr maps a worker-world error back to the caller: when the run
// failed because ctx was cancelled, every rank reports the wrapped
// cancellation and the engine returns ctx.Err() itself.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		return cerr
	}
	return err
}

// sortCoded runs the bijective code plane over the engine: each rank
// encodes its shard once into the rank's reusable code buffer, the full
// pipeline runs on raw uint64s, and each rank decodes its merged
// partition once at the end (see the package-level documentation of the
// code plane). Plan splitters are encoded likewise, so plan injection
// composes with the code plane.
func (s *Sorter[K]) sortCoded(ctx context.Context, plan *Plan[K], shards [][]K) ([][]K, Stats, error) {
	p := s.cfg.Procs
	outs := make([][]K, p)
	var stats Stats
	var codePlan *Plan[codes.Code]
	if plan != nil {
		codePlan = &Plan[codes.Code]{Splitters: codes.EncodeSlice(s.coder, plan.Splitters)}
	}
	encTime := make([]time.Duration, p)
	decTime := make([]time.Duration, p)
	err := s.pool.Run(ctx, func(c *comm.Comm) error {
		r := c.Rank()
		sc := s.scratch[r]
		cp := par.New(s.cfg.Workers)
		t0 := time.Now()
		sc.enc = codes.EncodeIntoPar(s.coder, shards[r], sc.enc, cp)
		encTime[r] = time.Since(t0)
		inj := injection[codes.Code]{scratch: &sc.exchCode, spill: s.spillFor(r)}
		if codePlan != nil {
			inj.splitters = codePlan.Splitters
			inj.stale = s.cfg.PlanStaleness
		}
		out, st, err := dispatch(c, sc.enc, s.cfg, codes.Compare, keycoder.Coder[codes.Code](codes.Identity{}), codes.ExtractCode, false, inj)
		if err != nil {
			return err
		}
		t1 := time.Now()
		outs[r] = codes.DecodeSlicePar(s.coder, out, cp)
		decTime[r] = time.Since(t1)
		if r == 0 {
			stats = fromCore(st)
		}
		return nil
	})
	s.releaseScratch()
	s.resetSpills()
	if err != nil {
		return nil, Stats{}, ctxErr(ctx, err)
	}
	// The code plane's O(n) encode and decode are work the comparator
	// plane does not do; charge them to the phases they bracket —
	// encode to the local sort, decode to the merge — so cross-plane
	// phase breakdowns stay honest. (Adding per-phase maxima is a
	// slight upper bound on the true combined critical path.)
	stats.LocalSort += slices.Max(encTime)
	stats.Merge += slices.Max(decTime)
	total := s.pool.Transport().TotalCounters()
	stats.TotalMsgs = total.MsgsSent
	stats.TotalBytes = total.BytesSent
	return outs, stats, nil
}

// sortTagged runs the §4.3 duplicate-handling path over the engine:
// wrap, sort tagged, unwrap. Tagged records order by (key, origin),
// which no 64-bit code can carry, so this path always runs on the
// comparator plane (and without plan injection — plans hold plain keys).
func (s *Sorter[K]) sortTagged(ctx context.Context, shards [][]K) ([][]K, Stats, error) {
	tagged := make([][]tagging.Tagged[K], len(shards))
	for r, sh := range shards {
		tagged[r] = tagging.Wrap(sh, r)
	}
	outs, stats, err := runEngine(ctx, s, nil, tagged, tagging.Cmp(s.compare), nil, nil, false, scratchNone)
	if err != nil {
		return nil, stats, err
	}
	plain := make([][]K, len(outs))
	for r, o := range outs {
		plain[r] = tagging.Unwrap(o)
	}
	return plain, stats, nil
}

// Plan runs only the front half of a sort — local sort plus splitter
// determination (sampling and histogramming for the HSS variants, the
// sampling phase for the sample sorts, probe refinement for classic
// histogram sort, node-level histogramming for NodeHSS) — and returns
// the finalized splitters with the protocol's achieved statistics. The
// input shards are read, not consumed.
//
// The returned Plan is the reusable artifact of the
// prepare-once/sort-many regime: SortWithPlan skips splitter
// determination entirely, which on a stationary distribution produces
// output rank-identical to Sort at a fraction of the protocol cost.
// Plan is deterministic given Config.Seed and the input, and uses the
// same per-rank sampling streams as Sort — the splitters are exactly
// the ones the equivalent Sort would have determined.
func (s *Sorter[K]) Plan(ctx context.Context, shards [][]K) (*Plan[K], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSorterClosed
	}
	if len(shards) != s.cfg.Procs {
		return nil, fmt.Errorf("hssort: Config.Procs = %d but %d shards supplied", s.cfg.Procs, len(shards))
	}
	if s.cfg.TagDuplicates {
		return nil, fmt.Errorf("hssort: splitter plans are not supported with TagDuplicates")
	}
	if !planCapable(s.cfg.Algorithm) {
		return nil, fmt.Errorf("hssort: %v is not splitter-based; plans do not apply", s.cfg.Algorithm)
	}
	empty := true
	for _, sh := range shards {
		if len(sh) > 0 {
			empty = false
			break
		}
	}
	if empty {
		// Splitter determination on zero keys yields zero splitters — a
		// plan every SortWithPlan would have to reject. Fail here, at
		// training time, not in the operation phase.
		return nil, fmt.Errorf("hssort: cannot plan on empty input")
	}
	useBijective, _, usePrefix, err := s.resolvePlanes(shards, nil)
	if err != nil {
		return nil, err
	}
	if useBijective {
		res, err := runPlan(ctx, s, shards, codes.Compare, keycoder.Coder[codes.Code](codes.Identity{}),
			func(r int) []codes.Code { return codes.EncodeSlice(s.coder, shards[r]) })
		if err != nil {
			return nil, err
		}
		plan := assemblePlan[K](s, res)
		plan.Splitters = codes.DecodeSlice(s.coder, res.splitters)
		return plan, nil
	}
	if usePrefix {
		// Prefix plane: determination runs entirely in code space (as the
		// prefix sorts do), and the splitter codes materialize as their
		// canonical 8-byte big-endian representatives — re-extraction at
		// injection time (SortWithPlan) recovers exactly these codes.
		res, err := runPlan(ctx, s, shards, codes.Compare, keycoder.Coder[codes.Code](codes.Identity{}),
			func(r int) []codes.Code { return codes.Extract(shards[r], s.code) })
		if err != nil {
			return nil, err
		}
		plan := assemblePlan[K](s, res)
		plan.Splitters = prefixSplitters[K](res.splitters)
		return plan, nil
	}
	res, err := runPlan(ctx, s, shards, s.compare, s.coder,
		func(r int) []K { return slices.Clone(shards[r]) })
	if err != nil {
		return nil, err
	}
	plan := assemblePlan[K](s, res)
	plan.Splitters = res.splitters
	return plan, nil
}

// Plan is a finalized splitter plan: the output of splitter
// determination, detached from the sort that would normally follow, so
// it can be applied to any number of later sorts (SortWithPlan). See
// Sorter.Plan.
type Plan[K any] struct {
	// Splitters are the finalized bucket boundaries: Buckets-1 keys in
	// non-decreasing order. Bucket i receives keys in [S_{i-1}, S_i).
	Splitters []K
	// Buckets is the bucket count the plan partitions into (the node
	// count for NodeHSS).
	Buckets int
	// N is the global key count of the planning input.
	N int64
	// Rounds, SamplePerRound and TotalSample describe the
	// splitter-determination protocol, exactly as in Stats.
	Rounds         int
	SamplePerRound []int64
	TotalSample    int64
	// Finalized reports whether every splitter met its target rank
	// window (false means the termination fallback fired — e.g. on
	// mass-duplicate inputs without tagging).
	Finalized bool
	// Epsilon is the configured load-imbalance target ε the protocol
	// aimed for.
	Epsilon float64
	// AchievedEpsilon is the measured quality of the plan on the
	// planning input: the largest bucket's load relative to the even
	// share N/Buckets, minus 1. It is computed exactly (one extra
	// histogram round over the final splitters) and is what a
	// SortWithPlan on the same data would observe.
	AchievedEpsilon float64

	procs int
	alg   Algorithm
}

// prefixSplitters materializes code-space splitters as byte-string
// keys: each splitter becomes keycoder.PrefixBytes of its code, the
// canonical 8-byte big-endian representative whose re-extracted prefix
// code is the splitter code itself. Only the prefix plane calls this,
// so K is always []byte.
func prefixSplitters[K any](sp []codes.Code) []K {
	out := make([]K, len(sp))
	for i, c := range sp {
		out[i] = any(keycoder.PrefixBytes(uint64(c))).(K)
	}
	return out
}

// planResult carries one plan run's outcome out of the worker world.
type planResult[E any] struct {
	splitters      []E
	n              int64
	rounds         int
	samplePerRound []int64
	totalSample    int64
	finalized      bool
	achieved       float64
}

// Plan-run tags, outside every algorithm's default BaseTag range (each
// pool run starts from a clean transport, but keeping them disjoint
// from the determination tags keeps the protocol readable).
const (
	planTagCount = 900 // global N all-reduce (+1)
	planTagRanks = 910 // achieved-ε histogram all-reduce (+1)
)

// assemblePlan copies the run outcome into the public Plan shape
// (Splitters are filled by the caller, which knows the plane).
func assemblePlan[K any, E any](s *Sorter[K], res planResult[E]) *Plan[K] {
	eps := s.cfg.Epsilon
	if eps == 0 {
		if s.cfg.Algorithm == NodeHSS {
			eps = 0.02
		} else {
			eps = 0.05
		}
	}
	return &Plan[K]{
		Buckets:         s.effectiveBuckets(),
		N:               res.n,
		Rounds:          res.rounds,
		SamplePerRound:  res.samplePerRound,
		TotalSample:     res.totalSample,
		Finalized:       res.finalized,
		Epsilon:         eps,
		AchievedEpsilon: res.achieved,
		procs:           s.cfg.Procs,
		alg:             s.cfg.Algorithm,
	}
}

// runPlan executes the splitter-determination-only pipeline over the
// engine's worker pool. localOf materializes rank r's working copy
// (cloned or encoded — Plan never consumes the caller's shards).
func runPlan[K, E any](ctx context.Context, s *Sorter[K], shards [][]K, compare func(E, E) int, coder keycoder.Coder[E], localOf func(r int) []E) (planResult[E], error) {
	cfg := s.cfg
	var res planResult[E]
	err := s.pool.Run(ctx, func(c *comm.Comm) error {
		r := c.Rank()
		local := localOf(r)
		if cs, ok := any(local).([]codes.Code); ok {
			// The bijective and prefix planes: the same radix kernel Sort
			// runs (a sorted code array is unique, so the plan is too).
			codes.SortPar(cs, par.New(cfg.Workers))
		} else {
			slices.SortFunc(local, compare)
		}

		nVec, err := collective.AllReduce(c, planTagCount, []int64{int64(len(local))}, collective.SumInt64)
		if err != nil {
			return err
		}
		n := nVec[0]

		var sp []E
		rounds, finalized := 0, true
		var samplePerRound []int64
		var totalSample int64
		switch cfg.Algorithm {
		case HSS, HSSOneRound, HSSTheoretical, NodeHSS:
			opts := hssDetOptions(cfg, compare)
			if cfg.Algorithm == NodeHSS {
				opts = nodeDetOptions(cfg, compare)
			}
			var info core.SplitterInfo
			sp, info, err = core.DetermineSplitters(c, local, n, opts)
			if err != nil {
				return err
			}
			rounds = info.Rounds
			samplePerRound = info.SamplePerRound
			totalSample = info.TotalSample
			finalized = info.Finalized
		case SampleSortRegular, SampleSortRandom:
			var size int64
			sp, size, err = samplesort.DetermineSplitters(c, local, n, samplesortDetOptions(cfg, compare))
			if err != nil {
				return err
			}
			rounds = 1
			samplePerRound = []int64{size}
			totalSample = size
		case HistogramSort:
			var probes int64
			sp, rounds, probes, err = histsort.DetermineSplitters(c, local, n, histsortDetOptions(cfg, compare, coder))
			if err != nil {
				return err
			}
			totalSample = probes
		default:
			return fmt.Errorf("hssort: %v is not splitter-based; plans do not apply", cfg.Algorithm)
		}

		// Measure the plan's exact quality on the planning data: one
		// more histogram round over the final splitters yields the
		// global bucket loads, hence the achieved ε.
		ranks := histogram.LocalRanks(local, sp, compare)
		global, err := collective.AllReduce(c, planTagRanks, ranks, collective.SumInt64)
		if err != nil {
			return err
		}
		if r == 0 {
			buckets := len(sp) + 1
			var maxLoad, prev int64
			for _, rk := range global {
				maxLoad = max(maxLoad, rk-prev)
				prev = rk
			}
			maxLoad = max(maxLoad, n-prev)
			achieved := 0.0
			if n > 0 {
				achieved = float64(maxLoad)*float64(buckets)/float64(n) - 1
			}
			res = planResult[E]{
				splitters:      sp,
				n:              n,
				rounds:         rounds,
				samplePerRound: samplePerRound,
				totalSample:    totalSample,
				finalized:      finalized,
				achieved:       achieved,
			}
		}
		return nil
	})
	if err != nil {
		return planResult[E]{}, ctxErr(ctx, err)
	}
	return res, nil
}

// The *DetOptions builders are the single source of the
// determination-relevant option wiring, shared by dispatch (full sorts)
// and runPlan (plan-only runs): the Plan API's core invariant — the
// splitters a Plan determines are exactly the ones the equivalent Sort
// would have determined — holds because both paths build these options
// through the same functions.

// hssDetOptions wires Config into the HSS-variant splitter
// determination options.
func hssDetOptions[E any](cfg Config, compare func(E, E) int) core.Options[E] {
	sched := core.FixedOversampling
	switch cfg.Algorithm {
	case HSSOneRound:
		sched = core.OneRoundScanning
	case HSSTheoretical:
		sched = core.Theoretical
	}
	return core.Options[E]{
		Cmp:              compare,
		Epsilon:          cfg.Epsilon,
		Buckets:          cfg.Buckets,
		Schedule:         sched,
		Rounds:           cfg.Rounds,
		OversampleFactor: cfg.OversampleFactor,
		Seed:             cfg.Seed,
		Approx:           cfg.Approx,
	}
}

// nodeDetOptions wires Config into NodeHSS's node-level splitter
// determination, mirroring nodesort.Sort's internal determine() exactly
// — FixedOversampling over node-count buckets, nodesort's 0.02 default
// ε, no Rounds/Approx threading — so plans match what its sorts do.
func nodeDetOptions[E any](cfg Config, compare func(E, E) int) core.Options[E] {
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.02
	}
	return core.Options[E]{
		Cmp:              compare,
		Epsilon:          eps,
		Buckets:          cfg.Procs / cfg.CoresPerNode,
		Schedule:         core.FixedOversampling,
		Seed:             cfg.Seed,
		OversampleFactor: cfg.OversampleFactor,
	}
}

// samplesortDetOptions wires Config into the sample-sort sampling
// phase options.
func samplesortDetOptions[E any](cfg Config, compare func(E, E) int) samplesort.Options[E] {
	method := samplesort.Regular
	if cfg.Algorithm == SampleSortRandom {
		method = samplesort.Random
	}
	return samplesort.Options[E]{
		Cmp:           compare,
		Epsilon:       cfg.Epsilon,
		Buckets:       cfg.Buckets,
		Method:        method,
		Oversample:    int(cfg.OversampleFactor),
		MaxOversample: cfg.MaxOversample,
		Seed:          cfg.Seed,
	}
}

// histsortDetOptions wires Config into classic histogram sort's probe
// refinement options.
func histsortDetOptions[E any](cfg Config, compare func(E, E) int, coder keycoder.Coder[E]) histsort.Options[E] {
	return histsort.Options[E]{
		Cmp:     compare,
		Coder:   coder,
		Epsilon: cfg.Epsilon,
		Buckets: cfg.Buckets,
	}
}

// injection carries a sort call's plan-reuse state into dispatch.
type injection[K any] struct {
	// splitters, when non-nil, skip splitter determination.
	splitters []K
	// stale is the staleness bound guarding injected splitters (0 off).
	stale float64
	// scratch is this rank's reusable exchange state (may be nil).
	scratch *exchange.Scratch[K]
	// spill is this rank's out-of-core manager (nil when MemoryBudget
	// is 0 or another process hosts the rank).
	spill *spill.Manager
}

// guardNaN resolves the per-call code path for inputs that may contain
// NaN keys — the one ordered value no order-preserving code can carry:
// the comparator sorts NaN below everything while the IEEE encoding
// scatters NaN payloads to both extremes. isNaN is non-nil only for
// float key types with a coder in play (plain float64/float32 keys and
// float-keyed KV records share this helper); when a NaN is found,
// CodePathAuto falls back to the comparator plane and CodePathOn fails
// loudly.
func guardNaN[E any](cp CodePath, shards [][]E, isNaN func(E) bool) (CodePath, error) {
	if isNaN == nil || cp == CodePathOff {
		return cp, nil
	}
	for _, s := range shards {
		for _, k := range s {
			if !isNaN(k) {
				continue
			}
			if cp == CodePathOn {
				return cp, fmt.Errorf("hssort: CodePathOn, but the input contains NaN keys, whose comparator order (NaN first) no order-preserving code realizes")
			}
			return CodePathOff, nil
		}
	}
	return cp, nil
}

// dispatch routes one rank's work to the selected algorithm. code, when
// non-nil, is the order-preserving extractor that puts the algorithm's
// compute hot paths on the code plane (on the bijective plane K is
// already the code-point type and code is the identity); prefix marks
// it non-injective, selecting the tie-breaking prefix pipelines. inj
// carries plan injection and per-rank scratch for the splitter-based
// algorithms.
func dispatch[K any](c *comm.Comm, local []K, cfg Config, compare func(K, K) int, coder keycoder.Coder[K], code func(K) uint64, prefix bool, inj injection[K]) ([]K, core.Stats, error) {
	var owner func(int) int
	if cfg.RoundRobinBuckets {
		owner = exchange.RoundRobinOwner(cfg.Procs)
	}
	chunkKeys := cfg.ChunkKeys
	if chunkKeys == 0 && cfg.StreamExchange {
		chunkKeys = exchange.DefaultChunkKeys
	}
	if chunkKeys != 0 {
		switch cfg.Algorithm {
		case HSS, HSSOneRound, HSSTheoretical, SampleSortRegular, SampleSortRandom, HistogramSort, NodeHSS:
		default:
			return nil, core.Stats{}, fmt.Errorf("hssort: StreamExchange is not supported by %v", cfg.Algorithm)
		}
	}
	switch cfg.Algorithm {
	case HSS, HSSOneRound, HSSTheoretical:
		o := hssDetOptions(cfg, compare)
		o.Code = code
		o.PrefixCode = prefix
		o.Owner = owner
		o.ChunkKeys = chunkKeys
		o.Workers = cfg.Workers
		o.Splitters = inj.splitters
		o.StaleBound = inj.stale
		o.Scratch = inj.scratch
		o.Spill = inj.spill
		return core.Sort(c, local, o)
	case SampleSortRegular, SampleSortRandom:
		o := samplesortDetOptions(cfg, compare)
		o.Code = code
		o.PrefixCode = prefix
		o.Owner = owner
		o.ChunkKeys = chunkKeys
		o.Workers = cfg.Workers
		o.Splitters = inj.splitters
		o.StaleBound = inj.stale
		o.Scratch = inj.scratch
		o.Spill = inj.spill
		return samplesort.Sort(c, local, o)
	case HistogramSort:
		if coder == nil && !prefix {
			return nil, core.Stats{}, fmt.Errorf("hssort: %v requires an integer or float key type", cfg.Algorithm)
		}
		o := histsortDetOptions(cfg, compare, coder)
		o.Code = code
		o.PrefixCode = prefix
		o.Owner = owner
		o.ChunkKeys = chunkKeys
		o.Workers = cfg.Workers
		o.Splitters = inj.splitters
		o.StaleBound = inj.stale
		o.Scratch = inj.scratch
		o.Spill = inj.spill
		return histsort.Sort(c, local, o)
	case Bitonic:
		return bitonic.Sort(c, local, bitonic.Options[K]{Cmp: compare})
	case Radix:
		if coder == nil {
			return nil, core.Stats{}, fmt.Errorf("hssort: %v requires an integer or float key type", cfg.Algorithm)
		}
		return radix.Sort(c, local, radix.Options[K]{Cmp: compare, Coder: coder, Code: code})
	case NodeHSS:
		return nodesort.Sort(c, local, nodesort.Options[K]{
			Cmp:              compare,
			Code:             code,
			PrefixCode:       prefix,
			CoresPerNode:     cfg.CoresPerNode,
			Epsilon:          cfg.Epsilon,
			Schedule:         core.FixedOversampling,
			Seed:             cfg.Seed,
			OversampleFactor: cfg.OversampleFactor,
			ChunkKeys:        chunkKeys,
			Workers:          cfg.Workers,
			Splitters:        inj.splitters,
			StaleBound:       inj.stale,
			Scratch:          inj.scratch,
			Spill:            inj.spill,
		})
	case OverPartition:
		return overpartition.Sort(c, local, overpartition.Options[K]{
			Cmp:       compare,
			OverRatio: cfg.Rounds, // reuse Rounds as k; 0 → log p
			Seed:      cfg.Seed,
		})
	default:
		return nil, core.Stats{}, fmt.Errorf("hssort: unknown algorithm %v", cfg.Algorithm)
	}
}
