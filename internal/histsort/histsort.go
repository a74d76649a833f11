package histsort

import (
	"fmt"
	"slices"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/keycoder"
)

// Options configures probe refinement. Everything else a histogram sort
// needs — comparator, ε, buckets, exchange — is the skeleton's
// core.Options.
type Options[K any] struct {
	// Coder is the order-preserving key <-> uint64 code bijection that
	// supplies the key-space arithmetic probe synthesis needs. Required.
	// It feeds probe synthesis only: the compute phases leave the
	// comparator when core.Options.Code is set.
	Coder keycoder.Coder[K]
	// ProbesPerSplitter is how many evenly spaced probes each
	// unfinalized splitter contributes per round (subdividing its code
	// interval into ProbesPerSplitter+1 parts). Default 1 (pure
	// bisection). Larger values trade histogram size for rounds.
	ProbesPerSplitter int
	// MaxRounds caps refinement rounds; the fallback then uses the
	// closest candidates seen. Default 72 (64-bit bisection + slack).
	MaxRounds int
}

func (h Options[K]) withDefaults() Options[K] {
	if h.ProbesPerSplitter < 1 {
		h.ProbesPerSplitter = 1
	}
	if h.MaxRounds == 0 {
		h.MaxRounds = 72
	}
	return h
}

// Probe refinement's layout of the strategy's tags.
const (
	tagProbes = core.TagStrategy + iota // probe broadcast
	tagRanks                            // bracket and histogram reductions
	tagSplit                            // final splitter broadcast
)

// splitterSearch is the root's bisection state for one splitter.
type splitterSearch struct {
	lo, hi uint64 // inclusive code interval still containing the splitter
	done   bool
}

// Sort runs classic histogram sort on this rank's keys and returns its
// globally sorted partition: the skeleton (core.SortWith) under the
// probe-refinement strategy. Every rank must call Sort with the same
// options. The input slice is consumed. The prefix plane
// (core.Options.PrefixCode) is not supported: its keys have no coder.
func Sort[K any](c *comm.Comm, local []K, opt core.Options[K], h Options[K]) ([]K, core.Stats, error) {
	if h.Coder == nil {
		return nil, core.Stats{}, fmt.Errorf("histsort: Options.Coder is required")
	}
	if opt.PrefixCode {
		return nil, core.Stats{}, fmt.Errorf("histsort: the prefix plane (Options.PrefixCode) is not supported")
	}
	probe := func(e comm.Endpoint, sorted []K, n int64, opt core.Options[K]) ([]K, core.SplitterInfo, error) {
		return DetermineSplitters(e, sorted, n, opt, h)
	}
	return core.SortWith(c, local, opt, core.Strategies[K]{Keys: probe})
}

// DetermineSplitters runs the probe-refinement loop of §2.3 over
// locally sorted keys; opt is the skeleton's (defaults applied). It
// returns the splitters on every rank, reporting the rounds and the
// probes of each. Every rank receives each round's probe broadcast, so
// every rank counts both alike.
func DetermineSplitters[E any](c comm.Endpoint, local []E, n int64, opt core.Options[E], h Options[E]) ([]E, core.SplitterInfo, error) {
	h = h.withDefaults()
	info := core.SplitterInfo{Finalized: true}
	root := 0
	me := c.Rank()
	if opt.Buckets == 1 || n == 0 {
		return []E{}, info, nil
	}

	// Every search starts from the data's global [min, max] code, not the
	// whole code space: a widening coder (Int32, Uint32, Float32) decodes
	// a code outside its image by truncation, so a probe synthesized there
	// is an unrelated key and the bisection never converges. One reduction
	// of (min, ^max) under min finds the bracket; an empty rank sends the
	// identity. Code order refines key order, so a rank's first key holds
	// its lowest code, up to keys the comparator ties (±0, NaNs), which
	// every histogram counts alike.
	bounds := []uint64{^uint64(0), ^uint64(0)}
	if len(local) > 0 {
		bounds = []uint64{h.Coder.Encode(local[0]), ^h.Coder.Encode(local[len(local)-1])}
	}
	bounds, err := collective.Reduce(c, root, tagRanks, bounds, minUint64)
	if err != nil {
		return nil, info, err
	}
	var tracker *histogram.Tracker[E]
	var searches []splitterSearch
	if me == root {
		tracker = histogram.NewTracker[E](n, opt.Buckets, opt.Epsilon, opt.Cmp)
		searches = make([]splitterSearch, opt.Buckets-1)
		for i := range searches {
			searches[i] = splitterSearch{lo: bounds[0], hi: ^bounds[1]}
		}
	}

	for {
		// Root synthesizes this round's probes: ProbesPerSplitter
		// evenly spaced codes inside each live interval. An empty probe
		// set signals completion.
		var probes []E
		if me == root {
			probes = synthesizeProbes(searches, tracker, opt.Cmp, h)
		}
		probes, err := collective.Bcast(c, root, tagProbes, probes)
		if err != nil {
			return nil, info, err
		}
		if len(probes) == 0 {
			break
		}
		info.Rounds++
		info.SamplePerRound = append(info.SamplePerRound, int64(len(probes)))
		info.TotalSample += int64(len(probes))
		ranks, err := collective.Reduce(c, root, tagRanks,
			histogram.LocalRanks(local, probes, opt.Cmp), collective.SumInt64)
		if err != nil {
			return nil, info, err
		}
		if me == root {
			tracker.Update(probes, ranks)
			narrow(searches, tracker, probes, ranks, h.Coder)
			if info.Rounds >= h.MaxRounds {
				for i := range searches {
					searches[i].done = true
				}
			}
		}
	}

	var splitters []E
	if me == root {
		sp, ok := tracker.Splitters()
		if !ok {
			return nil, info, fmt.Errorf("histsort: no candidates after %d rounds", info.Rounds)
		}
		slices.SortFunc(sp, opt.Cmp)
		splitters = sp
	}
	splitters, err = collective.Bcast(c, root, tagSplit, splitters)
	if err != nil {
		return nil, info, err
	}
	// The one-time validation that lets exchange.Partition skip its
	// per-call O(B) re-check.
	exchange.ValidateSplitters(splitters, opt.Cmp)
	return splitters, info, nil
}

// minUint64 is the elementwise minimum, the bracket reduction's operator.
func minUint64(dst, src []uint64) {
	for i := range dst {
		dst[i] = min(dst[i], src[i])
	}
}

// synthesizeProbes emits the next round's probe keys, or nil when every
// splitter search has converged.
func synthesizeProbes[K any](searches []splitterSearch, tracker *histogram.Tracker[K], cmp func(K, K) int, opt Options[K]) []K {
	var codes []uint64
	for i := range searches {
		s := &searches[i]
		if s.done || tracker.Finalized(i) {
			continue
		}
		span := s.hi - s.lo
		parts := uint64(opt.ProbesPerSplitter + 1)
		if span == 0 {
			// Code space exhausted (duplicate-heavy data): accept the
			// candidate.
			s.done = true
			continue
		}
		for j := uint64(1); j <= uint64(opt.ProbesPerSplitter); j++ {
			step := span / parts * j
			if step == 0 {
				step = j // degenerate tiny interval: distinct nudges
			}
			code := s.lo + step
			if code > s.hi {
				code = s.hi
			}
			codes = append(codes, code)
		}
	}
	if len(codes) == 0 {
		return nil
	}
	slices.Sort(codes)
	codes = slices.Compact(codes)
	probes := make([]K, len(codes))
	for i, cd := range codes {
		probes[i] = opt.Coder.Decode(cd)
	}
	// Decoding can introduce comparator-level duplicates; compact again.
	probes = slices.CompactFunc(probes, func(a, b K) bool { return cmp(a, b) == 0 })
	return probes
}

// narrow shrinks each splitter's code interval using the round's global
// ranks, the key-space analogue of the tracker's rank bounds.
func narrow[K any](searches []splitterSearch, tracker *histogram.Tracker[K], probes []K, ranks []int64, coder keycoder.Coder[K]) {
	for i := range searches {
		s := &searches[i]
		if s.done || tracker.Finalized(i) {
			if tracker.Finalized(i) {
				s.done = true
			}
			continue
		}
		target := tracker.Target(i)
		for j, q := range probes {
			code := coder.Encode(q)
			if code < s.lo || code > s.hi {
				continue
			}
			if ranks[j] < target {
				if code+1 > s.lo {
					s.lo = code + 1
				}
			} else if ranks[j] > target {
				if code == 0 {
					s.done = true
					break
				}
				if code-1 < s.hi {
					s.hi = code - 1
				}
			}
		}
		if s.lo > s.hi {
			s.done = true
		}
	}
}
