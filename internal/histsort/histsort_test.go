package histsort

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/keycoder"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func baseOpt() core.Options[int64] {
	return core.Options[int64]{Cmp: icmp, Epsilon: 0.1}
}

func baseProbe() Options[int64] {
	return Options[int64]{Coder: keycoder.Int64{}}
}

func trySort[K any](shards [][]K, opt core.Options[K], h Options[K]) ([][]K, core.Stats, error) {
	p := len(shards)
	outs := make([][]K, p)
	var stats core.Stats
	w := comm.NewWorld(p, comm.WithTimeout(120*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := Sort(c, shards[c.Rank()], opt, h)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		if c.Rank() == 0 {
			stats = st
		}
		return nil
	})
	return outs, stats, err
}

func checkGloballySorted(t *testing.T, shards, outs [][]int64) {
	t.Helper()
	var want, got []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	for r, out := range outs {
		if !slices.IsSorted(out) {
			t.Fatalf("rank %d output not sorted", r)
		}
		got = append(got, out...)
	}
	if !slices.Equal(got, want) {
		t.Fatal("output not the sorted permutation of input")
	}
}

func clone(shards [][]int64) [][]int64 {
	out := make([][]int64, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}

func TestHistSortUniform(t *testing.T) {
	const p, perRank = 6, 1500
	spec := dist.Spec{Kind: dist.Uniform, Min: 0, Max: 1 << 30}
	shards := spec.Shards(perRank, p, 3)
	outs, stats, err := trySort(clone(shards), baseOpt(), baseProbe())
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)
	if stats.Imbalance > 1.1+1e-9 {
		t.Errorf("imbalance %.4f", stats.Imbalance)
	}
	if stats.Rounds < 2 {
		t.Errorf("bisection finished in %d rounds — suspicious", stats.Rounds)
	}
}

func TestHistSortSkewNeedsMoreRoundsThanUniform(t *testing.T) {
	// §2.3: skewed key distributions inflate classic histogram sort's
	// round count — the motivation for HSS.
	const p, perRank = 6, 1500
	uni := dist.Spec{Kind: dist.Uniform, Min: 0, Max: 1 << 50}
	skew := dist.Spec{Kind: dist.PowerSkew, Min: 0, Max: 1 << 50, Param: 8}
	_, uniStats, err := trySort(clone(uni.Shards(perRank, p, 5)), baseOpt(), baseProbe())
	if err != nil {
		t.Fatal(err)
	}
	_, skewStats, err := trySort(clone(skew.Shards(perRank, p, 5)), baseOpt(), baseProbe())
	if err != nil {
		t.Fatal(err)
	}
	if skewStats.Rounds < uniStats.Rounds {
		t.Logf("skew rounds %d < uniform rounds %d (can happen on small inputs)", skewStats.Rounds, uniStats.Rounds)
	}
	if skewStats.Rounds < 3 {
		t.Errorf("power-skew over 2^50 range finished in %d rounds", skewStats.Rounds)
	}
}

func TestHistSortMoreProbesFewerRounds(t *testing.T) {
	const p, perRank = 4, 1000
	spec := dist.Spec{Kind: dist.Gaussian, Min: 0, Max: 1 << 40}
	one := baseProbe()
	one.ProbesPerSplitter = 1
	many := baseProbe()
	many.ProbesPerSplitter = 8
	_, oneStats, err := trySort(clone(spec.Shards(perRank, p, 7)), baseOpt(), one)
	if err != nil {
		t.Fatal(err)
	}
	_, manyStats, err := trySort(clone(spec.Shards(perRank, p, 7)), baseOpt(), many)
	if err != nil {
		t.Fatal(err)
	}
	if manyStats.Rounds >= oneStats.Rounds {
		t.Errorf("8 probes/splitter (%d rounds) not faster than 1 (%d rounds)",
			manyStats.Rounds, oneStats.Rounds)
	}
}

func TestHistSortDuplicatesTerminate(t *testing.T) {
	const p = 4
	shards := make([][]int64, p)
	for r := range shards {
		shards[r] = make([]int64, 300)
		for i := range shards[r] {
			shards[r][i] = int64(i % 3) // three distinct values
		}
	}
	h := baseProbe()
	h.MaxRounds = 70
	outs, _, err := trySort(clone(shards), baseOpt(), h)
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)
}

func TestHistSortSingleRankAndEmpty(t *testing.T) {
	shards := [][]int64{{9, 1, 5}}
	outs, _, err := trySort(clone(shards), baseOpt(), baseProbe())
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)

	outs, _, err = trySort([][]int64{{}, {}}, baseOpt(), baseProbe())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if len(o) != 0 {
			t.Errorf("empty input produced %v", o)
		}
	}
}

func TestHistSortRejectsMissingDeps(t *testing.T) {
	if _, _, err := trySort([][]int64{{1}}, core.Options[int64]{}, baseProbe()); err == nil {
		t.Error("missing Cmp accepted")
	}
	if _, _, err := trySort([][]int64{{1}}, core.Options[int64]{Cmp: icmp}, Options[int64]{}); err == nil {
		t.Error("missing Coder accepted")
	}
	prefix := core.Options[int64]{Cmp: icmp, Code: keycoder.Int64{}.Encode, PrefixCode: true}
	if _, _, err := trySort([][]int64{{1}}, prefix, baseProbe()); err == nil {
		t.Error("prefix plane accepted")
	}
}

func TestHistSortProperty(t *testing.T) {
	f := func(seed uint32, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		spec := dist.Spec{Kind: dist.Kind(seed % 6), Min: 0, Max: 1 << 20}
		shards := make([][]int64, p)
		for r := range shards {
			shards[r] = spec.Shard(int(seed%300)+20, r, p, uint64(seed))
		}
		opt := baseOpt()
		opt.Epsilon = 0.2
		h := baseProbe()
		h.ProbesPerSplitter = 4
		outs, _, err := trySort(clone(shards), opt, h)
		if err != nil {
			t.Log(err)
			return false
		}
		var want, got []int64
		for _, s := range shards {
			want = append(want, s...)
		}
		slices.Sort(want)
		for _, o := range outs {
			if !slices.IsSorted(o) {
				return false
			}
			got = append(got, o...)
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHistSortKeyTypes: probe bisection meets 1+ε on the widening
// coders' key types, whose codes span only part of the code space, and
// on float keys led by a NaN. A NaN sorts first and encodes below -Inf,
// so the bisection's bracket starts at it and still finds the real
// minimum of the rank it leads — there the keys of buckets 0–3, which
// round-robin placement sends to four ranks.
func TestHistSortKeyTypes(t *testing.T) {
	f32 := func(b uint64) float32 { return math.Float32frombits(uint32(b)) }
	nan64, nan32 := math.NaN(), float32(math.NaN())
	roundRobin := exchange.RoundRobinOwner(4)
	t.Run("int32", func(t *testing.T) {
		checkKeyType(t, keyShards(6000, func(b uint64) int32 { return int32(b) }, nil), keycoder.Int32{}, core.Options[int32]{Epsilon: 0.1})
	})
	t.Run("float32", func(t *testing.T) {
		checkKeyType(t, keyShards(6000, f32, nil), keycoder.Float32{}, core.Options[float32]{Epsilon: 0.1})
	})
	t.Run("float64-nan-low-rank", func(t *testing.T) {
		checkKeyType(t, keyShards(2000, math.Float64frombits, &nan64), keycoder.Float64{}, core.Options[float64]{Epsilon: 0.05, Buckets: 16, Owner: roundRobin})
	})
	t.Run("float32-nan-low-rank", func(t *testing.T) {
		checkKeyType(t, keyShards(2000, f32, &nan32), keycoder.Float32{}, core.Options[float32]{Epsilon: 0.05, Buckets: 16, Owner: roundRobin})
	})
}

// keyShards views 4 shards of n bit patterns as K: random patterns whose
// float views are finite (exponent top bit cleared) while the integer
// view spans both signs, or, given a nan, rank r's v = r·n+1 … r·n+n as
// v<<32|v — ascending in every view, so rank 0 holds the lowest n — with
// rank 0's first key replaced by the nan.
func keyShards[K any](n int, view func(uint64) K, nan *K) [][]K {
	out := make([][]K, 4)
	for r := range out {
		rng := rand.New(rand.NewPCG(3, uint64(r)))
		for i := range n {
			b := rng.Uint64() &^ (1<<62 | 1<<30)
			if nan != nil {
				v := uint64(r*n + i + 1)
				b = v<<32 | v
			}
			out[r] = append(out[r], view(b))
		}
	}
	if nan != nil {
		out[0][0] = *nan
	}
	return out
}

// checkKeyType sorts shards on the coder's code plane and checks that
// every rank is sorted, that the ranks together hold the input, and that
// the buckets meet 1+ε.
func checkKeyType[K cmp.Ordered](t *testing.T, shards [][]K, coder keycoder.Coder[K], opt core.Options[K]) {
	t.Helper()
	opt.Cmp, opt.Code, opt.Seed = cmp.Compare[K], coder.Encode, 3
	// Codes compare NaNs by bits, which == on the keys cannot.
	sortedCodes := func(shards [][]K) []uint64 {
		var cs []uint64
		for _, k := range slices.Concat(shards...) {
			cs = append(cs, coder.Encode(k))
		}
		slices.Sort(cs)
		return cs
	}
	want := sortedCodes(shards)
	outs, stats, err := trySort(shards, opt, Options[K]{Coder: coder})
	if err != nil {
		t.Fatal(err)
	}
	for r, o := range outs {
		if !slices.IsSortedFunc(o, cmp.Compare[K]) {
			t.Fatalf("rank %d output not sorted", r)
		}
	}
	if !slices.Equal(sortedCodes(outs), want) {
		t.Fatal("output not a permutation of the input")
	}
	if stats.Imbalance > 1+opt.Epsilon+1e-9 {
		t.Errorf("imbalance %.4f, want at most 1+%v", stats.Imbalance, opt.Epsilon)
	}
}
