package samplesort

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/merge"
	"hssort/internal/sampling"
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

// Options configures the sampling phase. Everything else a sample sort
// needs — comparator, ε, buckets, seed, exchange — is the skeleton's
// core.Options.
type Options struct {
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
}

// oversample resolves the per-processor sample size for n global keys.
func (s Options) oversample(buckets int, eps float64, n int64) int {
	k := s.Oversample
	if k == 0 {
		switch s.Method {
		case Regular:
			k = int(math.Ceil(float64(buckets) / eps))
		case Random:
			k = int(math.Ceil(4 * (1 + eps) * math.Log(float64(max(n, 2))) / (eps * eps)))
		}
	}
	k = max(k, 1)
	if s.MaxOversample > 0 {
		k = min(k, s.MaxOversample)
	}
	return k
}

// The sampling phase's layout of the strategy's tags.
const (
	tagGather = core.TagStrategy + iota // sample gather
	tagSplit                            // splitter broadcast (+1)
)

// Sort runs parallel sample sort on this rank's keys and returns its
// globally sorted partition: the skeleton (core.SortWith) under the
// sampling strategy. Every rank must call Sort with the same options.
// The input slice is consumed. The prefix plane (core.Options.PrefixCode)
// is not supported.
func Sort[K any](c *comm.Comm, local []K, opt core.Options[K], s Options) ([]K, core.Stats, error) {
	if s.Method != Regular && s.Method != Random {
		return nil, core.Stats{}, fmt.Errorf("samplesort: unknown method %d", s.Method)
	}
	if opt.PrefixCode {
		return nil, core.Stats{}, fmt.Errorf("samplesort: the prefix plane (Options.PrefixCode) is not supported")
	}
	sample := func(e comm.Endpoint, sorted []K, n int64, opt core.Options[K]) ([]K, core.SplitterInfo, error) {
		return DetermineSplitters(e, sorted, n, opt, s)
	}
	return core.SortWith(c, local, opt, core.Strategies[K]{Keys: sample})
}

// DetermineSplitters runs the sampling phase (§2.2 steps 1-2): every rank
// contributes s keys, the root sorts the combined sample and selects
// evenly spaced splitters, broadcast to all ranks. local must already be
// sorted and opt is the skeleton's (defaults applied). It returns the
// splitters on every rank, reporting the one round's combined sample
// size.
func DetermineSplitters[E any](c comm.Endpoint, local []E, n int64, opt core.Options[E], s Options) ([]E, core.SplitterInfo, error) {
	k := s.oversample(opt.Buckets, opt.Epsilon, n)
	var mine []E
	switch s.Method {
	case Regular:
		mine = sampling.Regular(local, k)
	case Random:
		rng := rand.New(rand.NewPCG(opt.Seed, uint64(c.Rank())*0x9e3779b97f4a7c15))
		mine = sampling.RandomBlock(local, k, rng)
	default:
		return nil, core.SplitterInfo{}, fmt.Errorf("samplesort: unknown method %d", s.Method)
	}
	parts, err := collective.Gatherv(c, 0, tagGather, mine)
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	var splitters []E
	var sampleSize int64
	if c.Rank() == 0 {
		// Merge the p sorted per-rank samples (duplicates retained: the
		// splitter index formula depends on the full multiset).
		lambda := merge.KWay(parts, opt.Cmp)
		sampleSize = int64(len(lambda))
		splitters = selectSplitters(lambda, c.Size(), opt.Buckets, s.Method, opt.Cmp)
	}
	splitters, err = collective.Bcast(c, 0, tagSplit, splitters)
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	size, err := collective.BcastValue(c, 0, tagSplit+1, sampleSize)
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	// The one-time validation that lets exchange.Partition skip its
	// per-call O(B) re-check.
	exchange.ValidateSplitters(splitters, opt.Cmp)
	return splitters, core.SplitterInfo{Rounds: 1, SamplePerRound: []int64{size}, TotalSample: size, Finalized: true}, nil
}

// selectSplitters picks B-1 splitters from the combined sorted sample Λ.
// Regular sampling uses the shifted index λ_{s·i − p/2} of §4.1.2
// (generalized to B buckets via the sample fraction i/B with a half-block
// back-shift); random sampling picks evenly spaced keys (§4.1.1).
func selectSplitters[K any](lambda []K, p, b int, method Method, cmp func(K, K) int) []K {
	m := len(lambda)
	if m == 0 || b == 1 {
		// No sample (empty input) or a single bucket: no splitters —
		// everything lands in bucket 0.
		return []K{}
	}
	out := make([]K, 0, b-1)
	for i := 1; i < b; i++ {
		var idx int
		switch method {
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
	slices.SortFunc(out, cmp)
	return out
}
