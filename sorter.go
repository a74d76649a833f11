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
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
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
// goroutine pool, exchange chunk buffers, merge queues and scratch, and
// code-plane scratch reused across calls. One-shot helpers (the package-level Sort,
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
		if !splitterBased(cfg.Algorithm) {
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
	if !splitterBased(s.cfg.Algorithm) {
		return fmt.Errorf("hssort: %v is not splitter-based; plans do not apply", s.cfg.Algorithm)
	}
	if plan.procs == 0 {
		return fmt.Errorf("hssort: plan was not prepared by Sorter.Plan")
	}
	if plan.procs != s.cfg.Procs {
		return fmt.Errorf("hssort: plan prepared for %d procs, engine has %d", plan.procs, s.cfg.Procs)
	}
	if want := effectiveBuckets(s.cfg); plan.Buckets != want {
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

// effectiveBuckets is the number of output ranges cfg partitions into:
// Buckets (default Procs), or the node count for NodeHSS.
func effectiveBuckets(cfg Config) int {
	if cfg.Algorithm == NodeHSS {
		return cfg.Procs / cfg.CoresPerNode
	}
	if cfg.Buckets != 0 {
		return cfg.Buckets
	}
	return cfg.Procs
}

// effectiveEpsilon is the load-imbalance target ε cfg aims for: Epsilon,
// defaulting to the paper's 0.05, or its tighter node-level 0.02 for
// NodeHSS.
func effectiveEpsilon(cfg Config) float64 {
	switch {
	case cfg.Epsilon != 0:
		return cfg.Epsilon
	case cfg.Algorithm == NodeHSS:
		return 0.02
	}
	return 0.05
}

// splitterBased reports whether the algorithm determines splitters and
// so runs on the sort skeleton — the precondition for Plan and
// SortWithPlan, the streaming exchange and the out-of-core plane.
func splitterBased(a Algorithm) bool {
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
	if err != nil {
		s.resetSpills()
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
// the run files a failed or aborted sort left behind, so the next sort
// starts from a clean directory, fresh counters and a meter at zero.
// Runs after the worker world has joined, like releaseScratch. A sort
// that succeeded needs none of it — it deleted its run files as it
// consumed them, drained its counters into its Stats and released every
// byte it charged — and is not given it, so an accounting leak shows up
// in the next sort's budget instead of being wiped.
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
	if err != nil {
		s.resetSpills()
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
	if !splitterBased(s.cfg.Algorithm) {
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
	useBijective, useRecord, usePrefix, err := s.resolvePlanes(shards, nil)
	if err != nil {
		return nil, err
	}
	if useBijective || usePrefix {
		// Both code planes plan over a sorted code array — each key's
		// code on the bijective plane, its prefix code on the prefix
		// plane, where (as in the prefix sorts) determination runs
		// entirely in code space. The splitter codes decode back to keys,
		// or materialize as their canonical 8-byte big-endian
		// representatives: re-extraction at injection time (SortWithPlan)
		// recovers exactly these codes.
		res, err := runPlan(ctx, s, codes.Compare, keycoder.Coder[codes.Code](codes.Identity{}), codes.ExtractCode,
			func(r int) []codes.Code {
				if usePrefix {
					return codes.Extract(shards[r], s.code)
				}
				return codes.EncodeSlice(s.coder, shards[r])
			})
		if err != nil {
			return nil, err
		}
		plan := assemblePlan[K](s, res)
		if usePrefix {
			plan.Splitters = prefixSplitters[K](res.front.Splitters)
		} else {
			plan.Splitters = codes.DecodeSlice(s.coder, res.front.Splitters)
		}
		return plan, nil
	}
	code := s.code
	if !useRecord {
		code = nil
	}
	res, err := runPlan(ctx, s, s.compare, s.coder, code,
		func(r int) []K { return slices.Clone(shards[r]) })
	if err != nil {
		return nil, err
	}
	plan := assemblePlan[K](s, res)
	plan.Splitters = res.front.Splitters
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

// planResult carries one plan run's outcome out of the worker world:
// rank 0's front half and the achieved ε measured on it (zero in a
// process that does not host rank 0).
type planResult[E any] struct {
	front    core.Front[E]
	achieved float64
}

// assemblePlan copies the run outcome into the public Plan shape
// (Splitters are filled by the caller, which knows the plane).
func assemblePlan[K any, E any](s *Sorter[K], res planResult[E]) *Plan[K] {
	st := res.front.Stats
	return &Plan[K]{
		Buckets:         effectiveBuckets(s.cfg),
		N:               st.N,
		Rounds:          st.Rounds,
		SamplePerRound:  st.SamplePerRound,
		TotalSample:     st.TotalSample,
		Finalized:       res.front.Finalized,
		Epsilon:         effectiveEpsilon(s.cfg),
		AchievedEpsilon: res.achieved,
		procs:           s.cfg.Procs,
		alg:             s.cfg.Algorithm,
	}
}

// runPlan executes a sort stopped early over the engine's worker pool:
// the skeleton's front half — the very function every splitter-based
// Sort runs, under the options and strategy splitterSort builds for
// both — so a plan's splitters are exactly the ones the equivalent Sort
// would have determined. localOf materializes rank r's working copy
// (cloned or encoded — Plan never consumes the caller's shards).
func runPlan[K, E any](ctx context.Context, s *Sorter[K], compare func(E, E) int, coder keycoder.Coder[E], code func(E) uint64, localOf func(r int) []E) (planResult[E], error) {
	var res planResult[E]
	err := s.pool.Run(ctx, func(c *comm.Comm) error {
		o, strat, err := splitterSort(s.cfg, compare, coder, code, false, injection[E]{})
		if err != nil {
			return err
		}
		f, err := core.FrontHalf(c, localOf(c.Rank()), o, strat)
		if err != nil {
			return err
		}
		// Measure the plan's exact quality on the planning data: the
		// front half has already cut this rank's runs, so one reduction
		// of the bucket loads yields max·B/N = 1 + the achieved ε.
		imb, err := f.BucketImbalance(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = planResult[E]{front: *f, achieved: imb - 1}
		}
		return nil
	})
	if err != nil {
		return planResult[E]{}, ctxErr(ctx, err)
	}
	return res, nil
}

// splitterSort wires Config into the skeleton for the seven
// splitter-based algorithms: core.Options, its shared part filled once
// for all of them, and the algorithm's splitter strategy — the only
// place they are told apart. dispatch (full sorts) and runPlan (the front
// half alone) both build through it.
func splitterSort[E any](cfg Config, compare func(E, E) int, coder keycoder.Coder[E], code func(E) uint64, prefix bool, inj injection[E]) (core.Options[E], core.Strategies[E], error) {
	o := core.Options[E]{
		Cmp:        compare,
		Code:       code,
		PrefixCode: prefix,
		Epsilon:    effectiveEpsilon(cfg),
		Buckets:    effectiveBuckets(cfg),
		Seed:       cfg.Seed,
		ChunkKeys:  cfg.ChunkKeys,
		Workers:    cfg.Workers,
		Splitters:  inj.splitters,
		StaleBound: inj.stale,
		Scratch:    inj.scratch,
		Spill:      inj.spill,
	}
	if cfg.RoundRobinBuckets {
		o.Owner = exchange.RoundRobinOwner(cfg.Procs)
	}
	if o.ChunkKeys == 0 && cfg.StreamExchange {
		o.ChunkKeys = exchange.DefaultChunkKeys
	}
	switch cfg.Algorithm {
	case HSS, HSSOneRound, HSSTheoretical:
		switch cfg.Algorithm {
		case HSSOneRound:
			o.Schedule = core.OneRoundScanning
		case HSSTheoretical:
			o.Schedule = core.Theoretical
		}
		o.Rounds = cfg.Rounds
		o.OversampleFactor = cfg.OversampleFactor
		o.Approx = cfg.Approx
		return o, core.HSS[E](), nil
	case NodeHSS:
		// Node-level HSS is always fixed oversampling on exact
		// histograms: no Rounds/Approx threading.
		o.OversampleFactor = cfg.OversampleFactor
		return o, core.HSS[E](), nil
	case SampleSortRegular, SampleSortRandom:
		method := samplesort.Regular
		if cfg.Algorithm == SampleSortRandom {
			method = samplesort.Random
		}
		return o, samplesort.Strategies[E](samplesort.Options{
			Method:        method,
			Oversample:    int(cfg.OversampleFactor),
			MaxOversample: cfg.MaxOversample,
		}), nil
	case HistogramSort:
		if coder == nil && !prefix {
			return o, core.Strategies[E]{}, fmt.Errorf("hssort: %v requires an integer or float key type", cfg.Algorithm)
		}
		return o, histsort.Strategies(histsort.Options[E]{Coder: coder}), nil
	}
	return o, core.Strategies[E]{}, fmt.Errorf("hssort: %v is not splitter-based", cfg.Algorithm)
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
// it non-injective, selecting the skeleton's prefix plane. inj carries
// plan injection and per-rank scratch for the splitter-based
// algorithms, which all run the one skeleton; only NodeHSS swaps in its
// own two-level data movement behind the shared front half.
func dispatch[K any](c *comm.Comm, local []K, cfg Config, compare func(K, K) int, coder keycoder.Coder[K], code func(K) uint64, prefix bool, inj injection[K]) ([]K, core.Stats, error) {
	if splitterBased(cfg.Algorithm) {
		o, strat, err := splitterSort(cfg, compare, coder, code, prefix, inj)
		if err != nil {
			return nil, core.Stats{}, err
		}
		if cfg.Algorithm == NodeHSS {
			return nodesort.Sort(c, local, o, cfg.CoresPerNode)
		}
		return core.SortWith(c, local, o, strat)
	}
	if cfg.ChunkKeys != 0 || cfg.StreamExchange {
		return nil, core.Stats{}, fmt.Errorf("hssort: StreamExchange is not supported by %v", cfg.Algorithm)
	}
	switch cfg.Algorithm {
	case Bitonic:
		return bitonic.Sort(c, local, bitonic.Options[K]{Cmp: compare})
	case Radix:
		if coder == nil {
			return nil, core.Stats{}, fmt.Errorf("hssort: %v requires an integer or float key type", cfg.Algorithm)
		}
		return radix.Sort(c, local, radix.Options[K]{Cmp: compare, Coder: coder, Code: code})
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
