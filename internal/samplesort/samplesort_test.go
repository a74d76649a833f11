package samplesort

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

// Stats aliases core.Stats for test brevity.
type Stats = core.Stats

func runSort(t *testing.T, shards [][]int64, opt core.Options[int64], s Options) ([][]int64, Stats) {
	t.Helper()
	outs, stats, err := trySort(shards, opt, s)
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats
}

func trySort(shards [][]int64, opt core.Options[int64], s Options) ([][]int64, Stats, error) {
	p := len(shards)
	outs := make([][]int64, p)
	var stats Stats
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := Sort(c, shards[c.Rank()], opt, s)
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

func TestRegularSamplingBalanceGuarantee(t *testing.T) {
	// Lemma 4.1.1: s = B/ε gives (1+ε) balance deterministically.
	const p, perRank = 8, 2000
	spec := dist.Spec{Kind: dist.PowerSkew}
	shards := spec.Shards(perRank, p, 3)
	in := clone(shards)
	outs, stats := runSort(t, in, core.Options[int64]{Cmp: icmp, Epsilon: 0.1}, Options{Method: Regular})
	checkGloballySorted(t, shards, outs)
	if stats.Imbalance > 1.1+1e-9 {
		t.Errorf("regular sampling imbalance %.4f exceeds guarantee", stats.Imbalance)
	}
	// Sample must be ~p·B/ε = p·80 keys.
	if stats.TotalSample < int64(p*(p-1))/1 {
		t.Errorf("sample %d suspiciously small", stats.TotalSample)
	}
}

func TestRandomSamplingBalance(t *testing.T) {
	const p, perRank = 8, 4000
	spec := dist.Spec{Kind: dist.Gaussian}
	shards := spec.Shards(perRank, p, 5)
	in := clone(shards)
	outs, stats := runSort(t, in, core.Options[int64]{Cmp: icmp, Epsilon: 0.1, Seed: 2}, Options{Method: Random})
	checkGloballySorted(t, shards, outs)
	if stats.Imbalance > 1.1+1e-9 {
		t.Errorf("random sampling imbalance %.4f", stats.Imbalance)
	}
}

func TestOversampleCapTradesBalance(t *testing.T) {
	// Capping the sample keeps the sort correct; balance may loosen.
	const p, perRank = 6, 2000
	spec := dist.Spec{Kind: dist.Uniform}
	shards := spec.Shards(perRank, p, 7)
	in := clone(shards)
	outs, stats := runSort(t, in, core.Options[int64]{Cmp: icmp, Epsilon: 0.05},
		Options{Method: Regular, MaxOversample: 8})
	checkGloballySorted(t, shards, outs)
	if stats.TotalSample > int64(p*8) {
		t.Errorf("cap ignored: sample %d", stats.TotalSample)
	}
}

func TestSampleSizeScalesWithMethod(t *testing.T) {
	// §4.1/Fig 4.1: regular sampling needs a far larger sample than
	// random sampling at the same ε for moderate N.
	const p, perRank = 8, 1000
	spec := dist.Spec{Kind: dist.Uniform}
	_, regStats := runSort(t, spec.Shards(perRank, p, 9), core.Options[int64]{Cmp: icmp, Epsilon: 0.02}, Options{Method: Regular})
	_, rndStats := runSort(t, spec.Shards(perRank, p, 9), core.Options[int64]{Cmp: icmp, Epsilon: 0.02}, Options{Method: Random})
	if regStats.TotalSample <= rndStats.TotalSample {
		t.Skipf("regular %d vs random %d: N too small for the asymptotic gap", regStats.TotalSample, rndStats.TotalSample)
	}
}

func TestSingleRankAndEmpty(t *testing.T) {
	shards := [][]int64{{3, 1, 2}}
	outs, _ := runSort(t, clone(shards), core.Options[int64]{Cmp: icmp}, Options{})
	checkGloballySorted(t, shards, outs)

	empty := [][]int64{{}, {}}
	outs, _ = runSort(t, empty, core.Options[int64]{Cmp: icmp}, Options{})
	for _, o := range outs {
		if len(o) != 0 {
			t.Errorf("empty input gave %v", o)
		}
	}
}

func TestMissingCmpRejected(t *testing.T) {
	_, _, err := trySort([][]int64{{1}, {2}}, core.Options[int64]{}, Options{})
	if err == nil {
		t.Fatal("missing Cmp accepted")
	}
}

func TestMethodString(t *testing.T) {
	if Regular.String() != "regular" || Random.String() != "random" {
		t.Error("method names wrong")
	}
	if Method(9).String() != "Method(9)" {
		t.Error("unknown method name wrong")
	}
}

func TestSampleSortProperty(t *testing.T) {
	f := func(seed uint32, pRaw, mRaw uint8) bool {
		p := int(pRaw%5) + 1
		method := Method(mRaw % 2)
		spec := dist.Spec{Kind: dist.Kind(seed % 6), Min: 0, Max: 1 << 16}
		shards := make([][]int64, p)
		for r := range shards {
			shards[r] = spec.Shard(int(seed%500)+20, r, p, uint64(seed))
		}
		outs, _, err := trySort(clone(shards), core.Options[int64]{Cmp: icmp, Epsilon: 0.2, Seed: uint64(seed) + 1},
			Options{Method: method, MaxOversample: 200})
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func clone(shards [][]int64) [][]int64 {
	out := make([][]int64, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}
