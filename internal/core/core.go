package core

import (
	"cmp"
	"fmt"
	"math"

	"hssort/internal/codes"
	"hssort/internal/comm"
	"hssort/internal/exchange"
	"hssort/internal/sampling"
	"hssort/internal/spill"
)

// Schedule selects the sampling discipline for splitter determination.
type Schedule int

const (
	// FixedOversampling gathers an expected oversampleFactor·Buckets
	// sample per round until all splitters are finalized (§6.1.2).
	FixedOversampling Schedule = iota
	// Theoretical runs Rounds rounds with sampling ratios
	// s_j = (2 ln B/ε)^(j/Rounds) (§3.3, Lemma 3.3.1).
	Theoretical
	// OneRoundScanning samples once at ratio 2/ε and picks splitters
	// with the scanning algorithm (§3.2, Theorem 3.2.1).
	OneRoundScanning
)

// String returns the schedule name used in experiment output.
func (s Schedule) String() string {
	switch s {
	case FixedOversampling:
		return "fixed-oversampling"
	case Theoretical:
		return "theoretical"
	case OneRoundScanning:
		return "one-round-scanning"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Options configures a sort on the skeleton (FrontHalf, BackHalf). Cmp is
// required; every other field has a documented default. The first block
// is shared by every splitter strategy; the second configures HSS's own
// splitter determination and is ignored under any other strategy. Every
// rank of the world must pass the same Options.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// Code, when set, supplies a per-key order-preserving uint64 sort
	// code: Cmp(a,b) < 0 ⇔ Code(a) < Code(b) and Cmp(a,b) == 0 ⇔ codes
	// equal. The compute hot paths then leave the comparator: the local
	// sort radix-sorts a code decoration with the keys in tow, partition
	// cuts run on the code array, and both merge paths compare codes
	// (received runs are encoded once per hop). Keys that are their own
	// codes (the root engine's bijective plane sorts []codes.Code) and
	// payload-carrying records (hssort.KV) both come through here.
	Code func(K) uint64
	// PrefixCode marks Code as a non-injective prefix extractor: it is
	// order-preserving only in the weak sense cmp(a, b) < 0 ⟹ code(a) <=
	// code(b), and distinct keys may share a code (variable-length byte
	// keys truncated to an 8-byte prefix). The skeleton then runs the
	// prefix plane: code-keyed kernels everywhere, with a comparator
	// tie-break after the radix local sort and inside the merges, and
	// splitter determination in code space (Strategies.Codes) — splitter
	// traffic stays fixed-size code points regardless of key length, and
	// prefix-equal splitter candidates saturate instead of looping
	// rounds (see SplitterInfo.Finalized). Requires Code.
	PrefixCode bool
	// Epsilon is the load-imbalance threshold ε: every bucket receives
	// at most N(1+ε)/B keys w.h.p. Default defaultEpsilon.
	Epsilon float64
	// Buckets is the number of output ranges B. Default: world size
	// (one bucket per processor). ChaNGa's configuration sets it to the
	// virtual-processor count, and a two-level sort to each level's group
	// count (Levels).
	Buckets int
	// Owner maps a bucket to the rank that receives it. Default:
	// exchange.ContiguousOwner(Buckets, p).
	Owner func(bucket int) int
	// Seed derives each rank's sampling stream, for the strategies that
	// sample. Default 1.
	Seed uint64
	// ChunkKeys, when positive, selects the streaming chunked exchange:
	// bucket payloads move in ChunkKeys-sized chunks interleaved across
	// destinations and the k-way merge runs incrementally as chunks
	// arrive, overlapping the exchange tail (§6.2) with bounded peak
	// memory. 0 (the default) selects the materializing exchange, unless
	// Spill is set: a budgeted exchange always streams.
	ChunkKeys int
	// Workers is this rank's compute-phase worker budget: the radix
	// local sort, partition scans, encode/decode maps and off-overlap
	// merges fan over a par.Pool of this size. <= 1 (the default) runs
	// every kernel serially; output is identical for every budget. The
	// root engine resolves its Config.Workers = 0 default
	// (GOMAXPROCS/hosted-ranks) before threading the value down here.
	Workers int
	// Splitters, when non-nil, seeds the sort with pre-determined
	// splitters (a stored plan). The front half partitions by them and
	// all-reduces the bucket loads — round 0, one B-length reduction —
	// and when the observed imbalance max·B/N is within 1+Epsilon the
	// strategy is skipped: straight to exchange → merge with
	// Stats.Rounds = 0. Otherwise the strategy runs with that histogram
	// in hand: HSS takes the seed as its first probes (see
	// DetermineSplitters), the other strategies run cold. The slice must
	// hold Buckets-1 keys in non-decreasing cmp order — the front half
	// validates once and panics otherwise, mirroring the
	// validate-at-determination contract of exchange.Partition. Every
	// rank must inject the same splitters.
	Splitters []K
	// Scratch, when non-nil, is this rank's reusable exchange state; a
	// long-lived engine passes the same Scratch on every call (see
	// exchange.Scratch). Each rank needs its own.
	Scratch *exchange.Scratch[K]
	// Spare, when non-nil, is caller memory this call has consumed — a
	// bijective-plane input shard, dead once encoded into the rank's
	// code buffer — at least as long as the local shard. The pure-plane
	// local sort borrows it as scatter scratch, which then adds nothing
	// to a memory budget (see spill.LocalSortScratch).
	Spare []codes.Code
	// Spill, when non-nil, is this rank's out-of-core manager: the local
	// sort (spill.LocalSort) keeps its scratch within the budget and the
	// exchange's receive path diverts over-budget streams to compressed
	// run files (see spill.Manager). nil keeps every phase fully in
	// memory.
	Spill *spill.Manager

	// Schedule selects HSS's sampling discipline. Default
	// FixedOversampling.
	Schedule Schedule
	// Rounds is the round count k for the Theoretical schedule.
	// Default: sampling.AutoRounds(Buckets, Epsilon). Ignored by the
	// other schedules.
	Rounds int

	// round0 is a rejected seed's histogram, set by FrontHalf for the
	// strategy: the injected Splitters and, per splitter, the global
	// count of keys strictly below it (nil without a rejected seed).
	round0 []int64
	// maxRounds caps histogramming rounds before falling back to the
	// best candidates seen (guarantees termination on adversarial inputs
	// such as mass duplicates): 4× the §6.2 bound + 8, unless a test sets
	// it.
	maxRounds int
}

// withDefaults validates opt and fills defaults for a world of p ranks:
// the shared fields first, then HSS's own. It needs nothing but p, so
// the skeleton rejects a bad option before any rank has done work or
// sent a message.
func (o Options[K]) withDefaults(p int) (Options[K], error) {
	if o.Cmp == nil {
		return o, fmt.Errorf("core: Options.Cmp is required")
	}
	if o.PrefixCode && o.Code == nil {
		return o, fmt.Errorf("core: PrefixCode requires Code")
	}
	if o.Epsilon == 0 {
		o.Epsilon = defaultEpsilon
	}
	if o.Epsilon < 0 {
		return o, fmt.Errorf("core: Epsilon %v < 0", o.Epsilon)
	}
	if o.Buckets == 0 {
		o.Buckets = p
	}
	if o.Buckets < 1 {
		return o, fmt.Errorf("core: Buckets %d < 1", o.Buckets)
	}
	if o.Owner == nil {
		o.Owner = exchange.ContiguousOwner(o.Buckets, p)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ChunkKeys < 0 {
		return o, fmt.Errorf("core: ChunkKeys %d < 0", o.ChunkKeys)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Splitters != nil && len(o.Splitters) != o.Buckets-1 {
		return o, fmt.Errorf("core: %d injected splitters for %d buckets (want %d)", len(o.Splitters), o.Buckets, o.Buckets-1)
	}

	if o.Rounds == 0 {
		o.Rounds = sampling.AutoRounds(o.Buckets, o.Epsilon)
	}
	if o.maxRounds == 0 {
		bound, err := sampling.ExpectedRoundsFixed(o.Buckets, o.Epsilon, oversampleFactor)
		if err != nil {
			bound = 8
		}
		o.maxRounds = 4*bound + 8
	}
	return o, nil
}

// defaultEpsilon is Options.Epsilon's default.
const defaultEpsilon = 0.05

// minTwoLevelRanks is the smallest world that sorts in two levels. It is
// not measured: the benchmark's sorts run p = 4 (flat) and p = 256 (16
// groups of 16), and none between. At 16 ranks a rank sends 3 + 3
// exchange messages instead of 15 and each level seeks 3 splitters.
const minTwoLevelRanks = 16

// Levels reports whether a sort of n keys with opt (as the caller passes
// it, before defaults) over p ranks runs in two levels, and its shape: g
// groups of c = p/g consecutive ranks, where g is the largest divisor of
// p with g ≤ √p. That takes p ≥ minTwoLevelRanks, one bucket per rank
// under the default owner, the materializing exchange (ChunkKeys 0, no
// Spill) and g ≥ 4, so p = 17 and p = 22 stay flat and p = 256 is 16×16.
// It also takes a key of level-2 slack per rank, n·ε₂ ≥ p: below that
// the window of either level is narrower than a key, and level 1 may
// fill a group past what its ranks can hold within 1+ε. Every rank
// decides alike. See FrontHalf.
func Levels[K any](p int, n int64, opt Options[K]) (g, c int, ok bool) {
	if p < minTwoLevelRanks || opt.Buckets != 0 && opt.Buckets != p || opt.Owner != nil || opt.ChunkKeys != 0 || opt.Spill != nil {
		return 0, 0, false
	}
	if eps := cmp.Or(opt.Epsilon, defaultEpsilon); float64(n)*levelEpsilon(eps) < float64(p) {
		return 0, 0, false
	}
	g = int(math.Sqrt(float64(p)))
	for g*g > p {
		g--
	}
	for p%g != 0 {
		g--
	}
	if g < 4 {
		return 0, 0, false
	}
	return g, p / g, true
}

// levelEpsilon is each level's ε of a two-level sort at ε: (1+ε₁)(1+ε₂)
// = 1+ε with ε₁ = ε₂.
func levelEpsilon(eps float64) float64 { return math.Sqrt(1+eps) - 1 }

// Resolve returns the options FrontHalf runs under on a world of p
// ranks, defaults filled, or the error it would return, so an engine can
// reject a configuration before it builds the world and read back the
// defaults it left to the skeleton.
func (o Options[K]) Resolve(p int) (Options[K], error) {
	return o.withDefaults(p)
}

// oversampleFactor is f for FixedOversampling: the expected sample size
// per round in units of Buckets — the paper's production setting
// (§6.1.2).
const oversampleFactor = 5

// The skeleton's tag layout, in protocol order, from tagBase. Every
// splitter-based sort, whatever its strategy, uses this one layout,
// which is what lets PhaseTagRange name a phase for all of them.
const (
	// tagBase is the first tag a sort uses on its endpoint.
	tagBase  comm.Tag = 1000
	tagCount          = tagBase // global N all-reduce (+1)
	// TagStrategy starts the StrategyTags tags a splitter strategy lays
	// out for its own protocol.
	TagStrategy  = tagBase + 2
	StrategyTags = 4
	tagSeed      = TagStrategy + StrategyTags // round-0 bucket-load all-reduce (+1)
	// tagExchange starts the bucket exchange's exchangeTags tags: a flat
	// sort's one exchange; at two levels, level 1's over the column and
	// level 2's over the row. Level 2's count, strategy and round 0 reuse
	// the tags before it, as do the column all-gathers of its counts and
	// (for a plan) its splitters.
	tagExchange  = tagSeed + 2
	exchangeTags = 2
	// tagStats is the closing stats all-reduce (+1).
	tagStats = tagExchange + exchangeTags
	// tagEnd is one past the last tag a sort occupies.
	tagEnd = tagStats + 2
)

// PhaseTagRange maps a named sort phase to the half-open tag interval
// [lo, hi) it occupies, for chaos/fault tooling that triggers on "the
// first message of phase X". Recognised phases: "start" (the whole
// span), "splitter" (count all-reduce through the strategy's rounds and
// a seed's round 0), "exchange" (all data movement, excluding the
// closing stats all-reduce). ok is false for any other name.
func PhaseTagRange(phase string) (lo, hi comm.Tag, ok bool) {
	switch phase {
	case "start":
		return tagBase, tagEnd, true
	case "splitter":
		return tagBase, tagExchange, true
	case "exchange":
		return tagExchange, tagStats, true
	}
	return 0, 0, false
}
