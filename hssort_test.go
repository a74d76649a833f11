package hssort

import (
	"slices"
	"testing"
	"testing/quick"

	"hssort/internal/dist"
)

func shardsFor(t *testing.T, kind dist.Kind, p, perRank int, seed uint64) [][]int64 {
	t.Helper()
	return dist.Spec{Kind: kind}.Shards(perRank, p, seed)
}

func checkSorted(t *testing.T, shards, outs [][]int64) {
	t.Helper()
	var want, got []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	for r, o := range outs {
		if !slices.IsSorted(o) {
			t.Fatalf("rank %d output not sorted", r)
		}
		got = append(got, o...)
	}
	if !slices.Equal(got, want) {
		t.Fatal("output not the sorted permutation of the input")
	}
}

func TestSortFuncCustomKeyType(t *testing.T) {
	type pair struct{ a, b int32 }
	const p = 3
	shards := make([][]pair, p)
	for r := range shards {
		for i := 0; i < 300; i++ {
			shards[r] = append(shards[r], pair{a: int32((i * 31) % 97), b: int32(r)})
		}
	}
	cmpPair := func(x, y pair) int {
		if x.a != y.a {
			return int(x.a - y.a)
		}
		return int(x.b - y.b)
	}
	outs, _, err := SortFunc(Config{Procs: p, Epsilon: 0.2}, shards, cmpPair)
	if err != nil {
		t.Fatal(err)
	}
	var prev *pair
	for _, o := range outs {
		for i := range o {
			if prev != nil && cmpPair(*prev, o[i]) > 0 {
				t.Fatal("custom key type mis-sorted")
			}
			prev = &o[i]
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := Sort(Config{Procs: 3}, [][]int64{{1}}); err == nil {
		t.Error("Procs/shards mismatch accepted")
	}
	if _, _, err := Sort(Config{}, [][]int64{}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, _, err := SortFunc[int64](Config{}, [][]int64{{1}}, nil); err == nil {
		t.Error("nil comparator accepted")
	}
}

func TestSimulateSplittersFacade(t *testing.T) {
	res, err := SimulateSplitters(1<<20, 256, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finalized || res.Imbalance > 1.05+1e-9 {
		t.Errorf("sim result %+v", res)
	}
	if _, err := SimulateSplitters(100, 4, -0.1, 1); err == nil {
		t.Error("sim accepted a negative eps")
	}
}

// TestFacadeProperty drives the facade across random configurations.
func TestFacadeProperty(t *testing.T) {
	f := func(seed uint32, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		spec := dist.Spec{Kind: dist.Kind(seed % 6), Min: 0, Max: 1 << 20}
		shards := make([][]int64, p)
		for r := range shards {
			shards[r] = spec.Shard(int(seed%400)+20, r, p, uint64(seed))
		}
		outs, _, err := Sort(Config{
			Procs: p, Epsilon: 0.2, Seed: uint64(seed) + 1,
		}, cloneShards(shards))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func cloneShards[K any](shards [][]K) [][]K {
	out := make([][]K, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}
