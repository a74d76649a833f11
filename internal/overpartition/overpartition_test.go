package overpartition

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func trySort(shards [][]int64, opt Options[int64]) ([][]int64, core.Stats, error) {
	p := len(shards)
	outs := make([][]int64, p)
	var stats core.Stats
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := Sort(c, shards[c.Rank()], opt)
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

func clone(shards [][]int64) [][]int64 {
	out := make([][]int64, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}

// checkPermutation: each rank's output sorted, union equals input.
func checkPermutation(t *testing.T, shards, outs [][]int64) {
	t.Helper()
	var want, got []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	for r, o := range outs {
		if !slices.IsSorted(o) {
			t.Fatalf("rank %d output not sorted", r)
		}
		got = append(got, o...)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatal("output not a permutation of input")
	}
}

// TestOverPartitionUniform runs 8 ranks and 16.
func TestOverPartitionUniform(t *testing.T) {
	const perRank = 2000
	for _, c := range []struct{ p, ratio int }{{8, 3}, {16, 4}} {
		spec := dist.Spec{Kind: dist.Uniform}
		shards := spec.Shards(perRank, c.p, 3)
		outs, stats, err := trySort(clone(shards), Options[int64]{Cmp: icmp})
		if err != nil {
			t.Fatalf("p=%d: %v", c.p, err)
		}
		checkPermutation(t, shards, outs)
		// log2(p)× over-partitioning with LPT: balance well under 2.
		if stats.Imbalance > 1.5 {
			t.Errorf("p=%d: imbalance %.3f", c.p, stats.Imbalance)
		}
		if stats.Buckets != c.ratio*c.p {
			t.Errorf("p=%d: buckets %d, want %d", c.p, stats.Buckets, c.ratio*c.p)
		}
	}
}

// TestOverPartitionStatsAgree checks that every rank returns the same
// Stats, as core.Stats promises, protocol counts included.
func TestOverPartitionStatsAgree(t *testing.T) {
	const p = 8
	shards := dist.Spec{Kind: dist.Uniform}.Shards(2000, p, 3)
	stats := make([]core.Stats, p)
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	if err := w.Run(func(c *comm.Comm) error {
		_, st, err := Sort(c, shards[c.Rank()], Options[int64]{Cmp: icmp})
		stats[c.Rank()] = st
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if stats[0].Rounds != 1 || stats[0].TotalSample == 0 {
		t.Errorf("rank 0: %d rounds, sample %d; want 1 round and a sample", stats[0].Rounds, stats[0].TotalSample)
	}
	for r := 1; r < p; r++ {
		if !reflect.DeepEqual(stats[r], stats[0]) {
			t.Errorf("rank %d stats %+v, rank 0 %+v", r, stats[r], stats[0])
		}
	}
}

func TestOverPartitionSkew(t *testing.T) {
	const p, perRank = 6, 2000
	for _, kind := range []dist.Kind{dist.Exponential, dist.PowerSkew, dist.Staircase} {
		spec := dist.Spec{Kind: kind}
		shards := spec.Shards(perRank, p, 7)
		outs, stats, err := trySort(clone(shards), Options[int64]{Cmp: icmp, OverRatio: 4})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		checkPermutation(t, shards, outs)
		if stats.Imbalance > 1.6 {
			t.Errorf("%v: imbalance %.3f", kind, stats.Imbalance)
		}
	}
}

func TestHigherOverRatioImprovesBalance(t *testing.T) {
	// Li & Sevcik's core claim: more over-partitioning → better balance.
	const p, perRank = 8, 3000
	spec := dist.Spec{Kind: dist.Gaussian}
	coarse, fine := 0.0, 0.0
	// Average over seeds to avoid a lucky draw inverting the trend.
	for seed := uint64(1); seed <= 3; seed++ {
		shards := spec.Shards(perRank, p, seed)
		_, s1, err := trySort(clone(shards), Options[int64]{Cmp: icmp, OverRatio: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		_, s8, err := trySort(clone(shards), Options[int64]{Cmp: icmp, OverRatio: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		coarse += s1.Imbalance
		fine += s8.Imbalance
	}
	if fine >= coarse {
		t.Errorf("8x over-partitioning imbalance %.3f not below 1x %.3f", fine/3, coarse/3)
	}
}

func TestOverPartitionEdgeCases(t *testing.T) {
	// Single rank.
	outs, _, err := trySort([][]int64{{3, 1, 2}}, Options[int64]{Cmp: icmp})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(outs[0], []int64{1, 2, 3}) {
		t.Errorf("single rank: %v", outs[0])
	}
	// Empty input.
	outs, _, err = trySort([][]int64{{}, {}}, Options[int64]{Cmp: icmp})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if len(o) != 0 {
			t.Errorf("empty input: %v", o)
		}
	}
	// Missing comparator.
	if _, _, err := trySort([][]int64{{1}}, Options[int64]{}); err == nil {
		t.Error("missing Cmp accepted")
	}
}

func TestLPTAssign(t *testing.T) {
	sizes := []int64{10, 1, 1, 1, 9, 8}
	owners := lptAssign(sizes, 3)
	loads := make([]int64, 3)
	for b, o := range owners {
		loads[o] += sizes[b]
	}
	// Optimal makespan is 10; LPT guarantees <= 4/3·OPT + 1.
	var maxLoad int64
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad > 14 {
		t.Errorf("LPT makespan %d, loads %v", maxLoad, loads)
	}
}

func TestBucketSizes(t *testing.T) {
	sizes := bucketSizes([]int64{3, 3, 7}, 10)
	if !slices.Equal(sizes, []int64{3, 0, 4, 3}) {
		t.Errorf("sizes %v", sizes)
	}
}

func TestOverPartitionProperty(t *testing.T) {
	f := func(seed uint32, pRaw, kRaw uint8) bool {
		p := int(pRaw%5) + 1
		k := int(kRaw%6) + 1
		spec := dist.Spec{Kind: dist.Kind(seed % 6), Min: 0, Max: 1 << 22}
		shards := make([][]int64, p)
		for r := range shards {
			shards[r] = spec.Shard(int(seed%400)+20, r, p, uint64(seed))
		}
		outs, _, err := trySort(clone(shards), Options[int64]{
			Cmp: icmp, OverRatio: k, Seed: uint64(seed) + 1,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		var want, got []int64
		for _, s := range shards {
			want = append(want, s...)
		}
		for _, o := range outs {
			if !slices.IsSorted(o) {
				return false
			}
			got = append(got, o...)
		}
		slices.Sort(want)
		slices.Sort(got)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
