package radix

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
	"hssort/internal/keycoder"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func baseOpt() Options[int64] {
	return Options[int64]{Cmp: icmp, Coder: keycoder.Int64{}, Bits: 10}
}

func trySort(shards [][]int64, opt Options[int64]) ([][]int64, float64, error) {
	p := len(shards)
	outs := make([][]int64, p)
	var imb float64
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := Sort(c, shards[c.Rank()], opt)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		if c.Rank() == 0 {
			imb = st.Imbalance
		}
		return nil
	})
	return outs, imb, err
}

func clone(shards [][]int64) [][]int64 {
	out := make([][]int64, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}

// TestRadixUniform runs 6 ranks and 16.
func TestRadixUniform(t *testing.T) {
	const perRank = 2000
	for _, p := range []int{6, 16} {
		spec := dist.Spec{Kind: dist.Uniform}
		shards := spec.Shards(perRank, p, 3)
		outs, imb, err := trySort(clone(shards), baseOpt())
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		var want, got []int64
		for _, s := range shards {
			want = append(want, s...)
		}
		slices.Sort(want)
		for r, o := range outs {
			if !slices.IsSorted(o) {
				t.Fatalf("p=%d: rank %d not sorted", p, r)
			}
			got = append(got, o...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("p=%d: not the sorted permutation", p)
		}
		// Uniform codes over the full range: decent balance expected.
		if imb > 1.5 {
			t.Errorf("p=%d: uniform imbalance %.3f", p, imb)
		}
	}
}

// TestRadixPlacement pins where each key lands to the digit→rank owner
// map the strategy's splitters encode: digits go to ranks in contiguous
// blocks, a block closing once it holds >= N/p keys. Bits 2 and 1 run
// out of digits before ranks.
func TestRadixPlacement(t *testing.T) {
	const perRank = 500
	for _, p := range []int{4, 16} {
		for _, bits := range []int{12, 2, 1} {
			for _, kind := range []dist.Kind{dist.Uniform, dist.PowerSkew, dist.Gaussian, dist.Zipfian} {
				shards := dist.Spec{Kind: kind}.Shards(perRank, p, 5)
				opt := baseOpt()
				opt.Bits = bits
				outs, _, err := trySort(clone(shards), opt)
				if err != nil {
					t.Fatalf("p=%d bits=%d %v: %v", p, bits, kind, err)
				}
				shift := 64 - bits
				global := make([]int64, 1<<bits)
				for _, s := range shards {
					for _, k := range s {
						global[opt.Coder.Encode(k)>>shift]++
					}
				}
				owner := make([]int, len(global))
				rank, acc := 0, int64(0)
				for d := range global {
					owner[d] = rank
					acc += global[d]
					if acc >= perRank && rank < p-1 {
						rank++
						acc = 0
					}
				}
				total := 0
				for r, o := range outs {
					total += len(o)
					for _, k := range o {
						if want := owner[opt.Coder.Encode(k)>>shift]; want != r {
							t.Fatalf("p=%d bits=%d %v: key %d on rank %d, owner map says %d", p, bits, kind, k, r, want)
						}
					}
				}
				if total != p*perRank {
					t.Fatalf("p=%d bits=%d %v: %d keys out, %d in", p, bits, kind, total, p*perRank)
				}
			}
		}
	}
}

func TestRadixSkewBreaksBalance(t *testing.T) {
	// §4.2: a hot digit cannot be split, so duplicates wreck balance —
	// the weakness comparison benchmarks surface.
	const p, perRank = 4, 1000
	shards := make([][]int64, p)
	for r := range shards {
		shards[r] = make([]int64, perRank)
		for i := range shards[r] {
			shards[r][i] = 42 // one digit holds everything
		}
	}
	outs, imb, err := trySort(clone(shards), baseOpt())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	if total != p*perRank {
		t.Fatalf("lost keys: %d", total)
	}
	if imb < float64(p)-0.01 {
		t.Errorf("constant input imbalance %.2f, want ~p (single hot digit)", imb)
	}
}

func TestRadixNarrowRange(t *testing.T) {
	// Keys spanning few distinct codes exercise empty digit buckets.
	const p = 4
	spec := dist.Spec{Kind: dist.Uniform, Min: 1000, Max: 2000}
	shards := spec.Shards(500, p, 9)
	outs, _, err := trySort(clone(shards), baseOpt())
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	for _, o := range outs {
		got = append(got, o...)
	}
	if !slices.Equal(got, want) {
		t.Fatal("not the sorted permutation")
	}
}

func TestRadixNegativeKeys(t *testing.T) {
	const p = 2
	spec := dist.Spec{Kind: dist.Uniform, Min: -1 << 40, Max: 1 << 40}
	shards := spec.Shards(800, p, 11)
	outs, _, err := trySort(clone(shards), baseOpt())
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	for _, o := range outs {
		got = append(got, o...)
	}
	if !slices.Equal(got, want) {
		t.Fatal("negative keys not sorted correctly")
	}
}

func TestRadixOptionValidation(t *testing.T) {
	if _, _, err := trySort([][]int64{{1}}, Options[int64]{Coder: keycoder.Int64{}}); err == nil {
		t.Error("missing Cmp accepted")
	}
	if _, _, err := trySort([][]int64{{1}}, Options[int64]{Cmp: icmp}); err == nil {
		t.Error("missing Coder accepted")
	}
	bad := baseOpt()
	bad.Bits = 40
	if _, _, err := trySort([][]int64{{1}}, bad); err == nil {
		t.Error("Bits=40 accepted")
	}
}

func TestRadixProperty(t *testing.T) {
	f := func(seed uint32, pRaw uint8) bool {
		p := int(pRaw%5) + 1
		spec := dist.Spec{Kind: dist.Kind(seed % 6), Min: -1 << 30, Max: 1 << 30}
		shards := make([][]int64, p)
		var want []int64
		for r := range shards {
			shards[r] = spec.Shard(int(seed%400)+10, r, p, uint64(seed))
			want = append(want, shards[r]...)
		}
		slices.Sort(want)
		outs, _, err := trySort(clone(shards), baseOpt())
		if err != nil {
			t.Log(err)
			return false
		}
		var got []int64
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
