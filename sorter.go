package hssort

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"hssort/internal/codes"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/keycoder"
	"hssort/internal/par"
	"hssort/internal/spill"
)

// Sorter is a long-lived sorting engine: New validates the Config once,
// constructs the transport and the per-rank worker world once, and the
// resulting Sorter is then called repeatedly — Sort for full sorts,
// SortSeeded (and its halves Plan/SortWithPlan) for sorts that start
// from the splitters of an earlier one — with the goroutine pool,
// exchange chunk buffers, merge queues and scratch, and code-plane
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
	coder   keycoder.Coder[K] // the bijective plane's coder (New); nil on every other plane
	code    func(K) uint64    // decorated-plane extractor (records) or prefix extractor
	prefix  bool              // code is a non-injective prefix extractor (NewBytes)
	pool    *comm.Pool
	scratch []*rankScratch[K]
	spills  []*spill.Manager // per-rank spill managers; nil when MemoryBudget is 0, nil entries for ranks other processes host
	first   int              // lowest rank this process hosts
	// strategies replaces HSS as the splitter strategy: it holds
	// core.Strategies[E] values, at most one per element type E a plane
	// sorts. Only the tests of the §4.2 baselines set it, to run them
	// through the whole engine.
	strategies []any

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
//
// The engine runs on the bijective code plane whenever the key type has
// a coder (int64, uint64, int32, uint32, float64 and float32) and on the
// comparator plane otherwise. The float coders put every NaN below -Inf,
// where cmp.Compare sorts it, so NaN keys ride the code plane too.
// Code points are always 8 bytes, so for int32 and uint32 keys the code
// plane doubles the communication volume the sim transport accounts;
// NewFunc(cfg, cmp.Compare[K]) keeps the keys' own width for §5.1 byte
// counts.
func New[K cmp.Ordered](cfg Config) (*Sorter[K], error) {
	return newSorter(cfg, cmp.Compare[K], coderFor[K](), nil, false)
}

// NewFunc creates a Sorter with an explicit comparator, for key types
// without a built-in order. It always runs on the comparator plane, so
// NewFunc(cfg, cmp.Compare[K]) is New without the code plane: the
// conformance oracle the code plane's equivalence tests run against.
func NewFunc[K any](cfg Config, compare func(K, K) int) (*Sorter[K], error) {
	if compare == nil {
		return nil, fmt.Errorf("hssort: comparator is required")
	}
	return newSorter[K](cfg, compare, nil, nil, false)
}

// newSorter is the shared constructor, and the compute plane is its
// arguments: coder puts the engine on the bijective code plane, code on
// the record plane, code with prefix — a non-injective prefix extractor
// (NewBytes) — on the prefix plane with its tie-break pipelines, and
// neither on the comparator plane. It validates the configuration once
// — its own rules, then the skeleton's, by building the options every
// Sort will run under — and only then builds the transport and the
// worker pool.
func newSorter[K any](cfg Config, compare func(K, K) int, coder keycoder.Coder[K], code func(K) uint64, prefix bool) (*Sorter[K], error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("hssort: at least one shard is required")
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("hssort: Timeout %v < 0", cfg.Timeout)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Minute
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("hssort: Workers %d < 0", cfg.Workers)
	}
	// The skeleton's own checks (ε, buckets, chunking), run on the
	// options every Sort builds — the bijective plane changes only their
	// element type. Its defaults for ε and the bucket count are the
	// engine's, resolved here once.
	o, err := coreOptions(cfg, compare, code, prefix).Resolve(cfg.Procs)
	if err != nil {
		return nil, fmt.Errorf("hssort: invalid Config: %w", err)
	}
	cfg.Epsilon, cfg.Buckets = o.Epsilon, o.Buckets
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("hssort: MemoryBudget %d < 0", cfg.MemoryBudget)
	}
	if cfg.SpillDir != "" && cfg.MemoryBudget == 0 {
		return nil, fmt.Errorf("hssort: SpillDir is set but MemoryBudget is 0 (the out-of-core plane is off)")
	}
	if cfg.MemoryBudget > 0 {
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
	// The ranks this process hosts: a multi-process TCP worker carries
	// exactly its own rank, everything else co-hosts the whole world.
	lo, hi := 0, cfg.Procs
	if cfg.Transport == TransportTCP && cfg.TCP.Coordinator != "" {
		lo, hi = cfg.TCP.Rank, cfg.TCP.Rank+1
	}
	var spills []*spill.Manager
	if cfg.MemoryBudget > 0 {
		spills = make([]*spill.Manager, cfg.Procs)
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
	s := &Sorter[K]{
		cfg:     cfg,
		compare: compare,
		coder:   coder,
		code:    code,
		prefix:  prefix,
		pool:    comm.NewPool(cfg.Procs, comm.WithTimeout(cfg.Timeout), comm.WithTransport(tr)),
		scratch: make([]*rankScratch[K], cfg.Procs),
		spills:  spills,
		first:   lo,
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
// machine. The input shards, which must not share memory, are
// consumed: their contents are unspecified after the call, on success
// or error (a memory-budgeted sort may use them as scratch).
func (s *Sorter[K]) Sort(ctx context.Context, shards [][]K) ([][]K, Stats, error) {
	outs, _, stats, err := s.run(ctx, nil, shards, true, false)
	return outs, stats, err
}

// SortWithPlan is SortSeeded for callers that keep the plan they came
// with: the plan seeds the sort and the one it ended with is dropped.
// The plan must come from this engine (or one with identical Procs and
// bucket geometry). Like Sort, it consumes the input shards.
func (s *Sorter[K]) SortWithPlan(ctx context.Context, plan *Plan[K], shards [][]K) ([][]K, Stats, error) {
	if plan == nil {
		return nil, Stats{}, fmt.Errorf("hssort: nil plan (prepare one with Sorter.Plan)")
	}
	outs, _, stats, err := s.run(ctx, plan, shards, true, false)
	return outs, stats, err
}

// SortSeeded is Sort started from the splitters of an earlier sort, and
// it returns the splitters this one ended with. The ranks partition by
// the seed and all-reduce the bucket loads (round 0: one B-length
// reduction, no sample). A seed that still meets the 1+ε target stands:
// the sort goes straight to exchange → merge, Stats.Rounds reads 0 and
// next holds the seed's splitters. Otherwise splitter determination runs
// after all, with round 0 as its first histogram — it finalizes the
// splitters the seed already pins and samples only the intervals still
// open — and next holds the refined splitters:
// feeding it to the following sort is how a loop tracks a drifting
// distribution (ChaNGa's per-timestep re-sort, §6.3). A nil seed is a
// plain Sort whose splitters are kept; next is then exactly what Plan
// would have returned on the same shards. next is nil when the input
// holds no keys (zero keys determine no splitters). Like Sort, it
// consumes the input shards.
//
// Not with TagDuplicates: plans hold plain keys.
func (s *Sorter[K]) SortSeeded(ctx context.Context, seed *Plan[K], shards [][]K) (out [][]K, next *Plan[K], stats Stats, err error) {
	return s.run(ctx, seed, shards, true, true)
}

// Plan is SortSeeded stopped before any data moves — local sort plus
// splitter determination (sampling and histogramming) — returning the
// splitters with the protocol's achieved statistics. The input shards
// are read, not consumed.
//
// Plan is deterministic given Config.Seed and the input, and uses the
// same per-rank sampling streams as Sort — the splitters are exactly
// the ones the equivalent Sort would have determined.
func (s *Sorter[K]) Plan(ctx context.Context, shards [][]K) (*Plan[K], error) {
	_, plan, _, err := s.run(ctx, nil, shards, false, true)
	if err == nil && plan == nil {
		// A plan every seeded sort would have to reject. Fail here, at
		// training time, not in the operation phase.
		err = fmt.Errorf("hssort: cannot plan on empty input")
	}
	return plan, err
}

// run is every engine call: describe the engine's compute plane to
// runEngine — what each rank sorts, where its output goes, how splitters
// turn back into keys — and run the worker world once. full is false for
// Plan, which stops after the front half; wantNext asks for the plan the
// run ends with.
func (s *Sorter[K]) run(ctx context.Context, seed *Plan[K], shards [][]K, full, wantNext bool) ([][]K, *Plan[K], Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, Stats{}, ErrSorterClosed
	}
	if len(shards) != s.cfg.Procs {
		return nil, nil, Stats{}, fmt.Errorf("hssort: Config.Procs = %d but %d shards supplied", s.cfg.Procs, len(shards))
	}
	var seedKeys []K
	if seed != nil || wantNext {
		if err := s.checkPlan(seed); err != nil {
			return nil, nil, Stats{}, err
		}
		if seed != nil {
			seedKeys = seed.Splitters
		}
	}
	var outs [][]K
	var err error
	if full {
		outs = make([][]K, s.cfg.Procs)
	}
	var next *Plan[K]
	var stats Stats
	switch {
	case s.cfg.TagDuplicates:
		// §4.3: wrap, sort tagged, unwrap. Tagged records order by (key,
		// origin), which no 64-bit code can carry, so this plane always
		// runs on the comparator (and unseeded — plans hold plain keys).
		for r, sh := range shards {
			if len(sh) > math.MaxInt32 {
				return nil, nil, Stats{}, fmt.Errorf("hssort: shard %d holds %d keys, beyond TagDuplicates' int32 tag index", r, len(sh))
			}
		}
		_, stats, err = runEngine(ctx, s, engineRun[K, tagged[K]]{
			compare: tagCmp(s.compare),
			input:   func(r int) []tagged[K] { return tagWrap(shards[r], r) },
			output:  func(r int, out []tagged[K]) { outs[r] = tagUnwrap(out) },
		})
	case s.coder != nil:
		// Each rank encodes its shard once into its reusable code buffer,
		// the whole pipeline runs on raw uint64s, and each rank decodes
		// its merged partition once at the end (see the package-level
		// documentation of the code plane). Seed splitters are encoded
		// likewise and the splitters decode back to keys.
		encTime := make([]time.Duration, s.cfg.Procs)
		decTime := make([]time.Duration, s.cfg.Procs)
		job := engineRun[K, codes.Code]{
			compare: codes.Compare,
			code:    codes.ExtractCode,
			input: func(r int) []codes.Code {
				t0 := time.Now()
				sc := s.scratch[r]
				sc.enc = codes.EncodeIntoPar(s.coder, shards[r], sc.enc, par.New(s.cfg.Workers))
				encTime[r] = time.Since(t0)
				return sc.enc
			},
			plan: wantNext,
			keys: func(f *core.Front[codes.Code]) []K { return codes.DecodeSlice(s.coder, f.Splitters) },
		}
		if seed != nil {
			job.seed = codes.EncodeSlice(s.coder, seedKeys)
		}
		if full && s.cfg.MemoryBudget > 0 {
			// A consuming call's shard is dead once encoded: under a
			// budget the local sort scatters through it instead of
			// falling back to the in-place kernel.
			job.spare = func(r int) []codes.Code { return spareCodes(shards[r]) }
		}
		if full {
			// The output decodes in place (8-byte keys; uint64 with no
			// pass at all), so the caller gets the merged array's own
			// memory. That rests on one invariant: out is fresh for every
			// call and this rank's alone — merge.Runs([]K{}, …) on the
			// materializing exchange, ExchangeStream's make on the
			// streaming one. It is never engine scratch, an input shard,
			// or memory another rank's output shares.
			job.output = func(r int, out []codes.Code) {
				t0 := time.Now()
				outs[r] = codes.DecodeInPlace(s.coder, out, par.New(s.cfg.Workers))
				decTime[r] = time.Since(t0)
			}
		}
		next, stats, err = runEngine(ctx, s, job)
		// The code plane's O(n) encode and decode are work the comparator
		// plane does not do; charge them to the phases they bracket —
		// encode to the local sort, decode to the merge — so cross-plane
		// phase breakdowns stay honest. (Adding per-phase maxima is a
		// slight upper bound on the true combined critical path.)
		stats.LocalSort += slices.Max(encTime)
		stats.Merge += slices.Max(decTime)
	default:
		// The record, prefix and comparator planes sort the keys
		// themselves; the first two decorate them with s.code.
		job := engineRun[K, K]{
			compare: s.compare,
			code:    s.code,
			prefix:  s.prefix,
			seed:    seedKeys,
			input:   func(r int) []K { return shards[r] },
			plan:    wantNext,
			keys:    func(f *core.Front[K]) []K { return f.Splitters },
		}
		if s.prefix {
			job.keys = func(f *core.Front[K]) []K { return prefixSplitters[K](f.SplitterCodes) }
		}
		if full {
			job.output = func(r int, out []K) { outs[r] = out }
		} else {
			job.input = func(r int) []K { return slices.Clone(shards[r]) }
		}
		next, stats, err = runEngine(ctx, s, job)
	}
	if err != nil {
		return nil, nil, Stats{}, err
	}
	return outs, next, stats, nil
}

// spareCodes views an 8-byte numeric shard's memory as codes, and is nil
// for any other key type.
func spareCodes[K any](shard []K) []codes.Code {
	switch any(shard).(type) {
	case []int64, []uint64, []float64:
		return unsafe.Slice((*codes.Code)(unsafe.Pointer(unsafe.SliceData(shard))), len(shard))
	}
	return nil
}

// checkPlan verifies that this engine deals in plans at all and, when a
// seed is given, that it fits the engine's geometry.
func (s *Sorter[K]) checkPlan(plan *Plan[K]) error {
	if s.cfg.TagDuplicates {
		return fmt.Errorf("hssort: splitter plans are not supported with TagDuplicates")
	}
	if plan == nil {
		return nil
	}
	if plan.procs == 0 {
		return fmt.Errorf("hssort: plan was not prepared by Sorter.Plan")
	}
	if plan.procs != s.cfg.Procs {
		return fmt.Errorf("hssort: plan prepared for %d procs, engine has %d", plan.procs, s.cfg.Procs)
	}
	if plan.Buckets != s.cfg.Buckets {
		return fmt.Errorf("hssort: plan prepared for %d buckets, engine partitions into %d", plan.Buckets, s.cfg.Buckets)
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

// engineRun describes one run of the worker world to runEngine: the
// plane it runs on, as the element type E the skeleton actually sorts
// and the hooks that carry K in and out of it.
type engineRun[K, E any] struct {
	// compare, code and prefix are the plane: E's comparator, the
	// order-preserving extractor that puts the hot paths on the code
	// plane (nil for the comparator plane) and whether that extractor is
	// only a prefix.
	compare func(E, E) int
	code    func(E) uint64
	prefix  bool
	// seed, when non-nil, holds the splitters the sort starts from.
	seed []E
	// input materializes rank r's working keys, which the run consumes.
	input func(r int) []E
	// spare, when non-nil, lends rank r's consumed caller memory to the
	// local sort as scatter scratch (core.Options.Spare).
	spare func(r int) []codes.Code
	// output receives rank r's sorted partition. nil stops the run after
	// the front half.
	output func(r int, out []E)
	// plan asks for the plan the run ends with; keys turns the front
	// half's splitters back into K.
	plan bool
	keys func(*core.Front[E]) []K
}

// runEngine executes one run over the engine's worker pool — the only
// place the pool is run — and every run is the skeleton: the front half
// under HSS (or the strategy s.strategies holds) and the options
// coreOptions builds, then (unless the run stops there) the back half.
func runEngine[K, E any](ctx context.Context, s *Sorter[K], job engineRun[K, E]) (*Plan[K], Stats, error) {
	var stats Stats
	var front *core.Front[E]
	var achieved float64
	err := s.pool.Run(ctx, func(c *comm.Comm) error {
		r := c.Rank()
		o := coreOptions(s.cfg, job.compare, job.code, job.prefix)
		o.Splitters = job.seed
		// Every job runs under the rank's budget, so a plan takes the
		// same shape (core.Levels) as the sort it seeds.
		o.Spill = s.spillFor(r)
		if job.output != nil {
			o.Scratch = scratchOf[E](s.scratch[r])
		}
		if job.spare != nil {
			o.Spare = job.spare(r)
		}
		f, err := core.FrontHalf(c, job.input(r), o, strategyOf[E](s.strategies))
		if err != nil {
			return err
		}
		if job.plan {
			// The plan's splitters, all of them at two levels, and its
			// exact quality on this data: the front half has cut this
			// rank's runs, so one reduction of the bucket loads yields
			// max·B/N = 1 + the achieved ε — the very one an accepted
			// seed's round 0 already made.
			if err := f.GatherSplitters(c); err != nil {
				return err
			}
			imb, err := f.BucketImbalance(c)
			if err != nil {
				return err
			}
			if r == s.first { // every rank holds the same splitters
				front, achieved = f, imb-1
			}
		}
		if job.output == nil {
			return nil
		}
		out, st, err := f.BackHalf(c)
		if err != nil {
			return err
		}
		job.output(r, out)
		if r == 0 {
			stats = st
		}
		return nil
	})
	s.releaseScratch()
	if err != nil {
		s.resetSpills()
		return nil, Stats{}, ctxErr(ctx, err)
	}
	total := comm.TotalCounters(s.pool.Transport())
	stats.TotalMsgs = total.MsgsSent
	stats.TotalBytes = total.BytesSent
	if front == nil {
		return nil, stats, nil
	}
	splitters := job.keys(front)
	if len(splitters) != s.cfg.Buckets-1 {
		return nil, stats, nil // no keys, no splitters
	}
	return &Plan[K]{
		Splitters:       splitters,
		Buckets:         s.cfg.Buckets,
		N:               front.Stats.N,
		Rounds:          front.Stats.Rounds,
		SamplePerRound:  front.Stats.SamplePerRound,
		TotalSample:     front.Stats.TotalSample,
		Finalized:       front.Finalized,
		Epsilon:         s.cfg.Epsilon,
		AchievedEpsilon: achieved,
		procs:           s.cfg.Procs,
	}, stats, nil
}

// strategyOf returns the splitter strategy over element type E: the one
// strategies holds for E, or HSS.
func strategyOf[E any](strategies []any) core.Strategies[E] {
	for _, st := range strategies {
		if st, ok := st.(core.Strategies[E]); ok {
			return st
		}
	}
	return core.HSS[E]()
}

// scratchOf returns the rank's reusable exchange state for element type
// E: the key slot, the code slot, or nil for an element type that lives
// for one call only (tagged records).
func scratchOf[E, K any](sc *rankScratch[K]) *exchange.Scratch[E] {
	if x, ok := any(&sc.exch).(*exchange.Scratch[E]); ok {
		return x
	}
	x, _ := any(&sc.exchCode).(*exchange.Scratch[E])
	return x
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

// Plan is a splitter plan: the output of splitter determination,
// detached from the sort it came from, so it can seed any number of
// later sorts (SortSeeded, SortWithPlan). See Sorter.Plan.
type Plan[K any] struct {
	// Splitters are the finalized bucket boundaries: Buckets-1 keys in
	// non-decreasing order. Bucket i receives keys in [S_{i-1}, S_i).
	// From a two-level sort, every (p/g)-th is level 1's and the rest
	// its groups'.
	Splitters []K
	// Buckets is the bucket count the plan partitions into.
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
	// share N/Buckets, minus 1, over all Buckets buckets at two levels
	// too. It is computed exactly (one extra histogram round over the
	// final splitters) and is what round 0 of a flat sort seeded with
	// the plan would observe on the same data; at two levels each
	// level's round 0 checks its own share against √(1+ε).
	AchievedEpsilon float64

	procs int
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

// coreOptions wires Config into the skeleton's core.Options. The
// per-call fields (seed splitters, scratch, spill manager) are
// runEngine's to set.
func coreOptions[E any](cfg Config, compare func(E, E) int, code func(E) uint64, prefix bool) core.Options[E] {
	o := core.Options[E]{
		Cmp:        compare,
		Code:       code,
		PrefixCode: prefix,
		Epsilon:    cfg.Epsilon,
		Buckets:    cfg.Buckets,
		Seed:       cfg.Seed,
		ChunkKeys:  cfg.ChunkKeys,
		Workers:    cfg.Workers,
	}
	if o.ChunkKeys == 0 && cfg.StreamExchange {
		o.ChunkKeys = exchange.DefaultChunkKeys
	}
	return o
}

// tagged is a key with its origin — the duplicate handling of §4.3
// (Config.TagDuplicates). Tagging every key with the rank it resides on
// and its local index imposes a strict total order on an input with
// arbitrary duplication, so the splitter strategies behave exactly as on
// distinct keys and the balance guarantee no longer degrades with
// duplicate counts.
type tagged[K any] struct {
	key K
	pe  int32 // rank the key resides on before sorting
	idx int32 // index in that rank's shard
}

// tagCmp lifts a key comparator to tagged keys: ties on the key break by
// (pe, idx), a strict total order.
func tagCmp[K any](compare func(K, K) int) func(tagged[K], tagged[K]) int {
	return func(a, b tagged[K]) int {
		if c := compare(a.key, b.key); c != 0 {
			return c
		}
		if c := cmp.Compare(a.pe, b.pe); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	}
}

// tagWrap tags each of rank's keys with the rank and its index; run has
// checked that the index fits.
func tagWrap[K any](local []K, rank int) []tagged[K] {
	out := make([]tagged[K], len(local))
	for i, k := range local {
		out[i] = tagged[K]{key: k, pe: int32(rank), idx: int32(i)}
	}
	return out
}

// tagUnwrap strips the tags, preserving order.
func tagUnwrap[K any](ts []tagged[K]) []K {
	out := make([]K, len(ts))
	for i, t := range ts {
		out[i] = t.key
	}
	return out
}
