package codes

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// searchRanks is the reference both sorted-probe kernels are held to:
// one sort.Search per probe.
func searchRanks(sorted, probes []Code) []int64 {
	out := make([]int64, len(probes))
	for i, q := range probes {
		out[i] = int64(sort.Search(len(sorted), func(j int) bool { return sorted[j] >= q }))
	}
	return out
}

// FuzzSortedRanks holds Ranks and Cuts to a per-probe sort.Search. The
// fuzzer's bytes become keys with duplicates (a narrow value range when
// span is small), probes drawn below, among and above them, keys
// themselves as probes, and the top code; Ranks sees the probes unsorted
// as well as sorted.
func FuzzSortedRanks(f *testing.F) {
	f.Add(uint64(1), uint16(2000), uint16(92), uint8(40), false)
	f.Add(uint64(2), uint16(2000), uint16(2000), uint8(12), true)
	f.Add(uint64(3), uint16(9), uint16(700), uint8(3), false)
	f.Add(uint64(4), uint16(0), uint16(5), uint8(64), true)
	f.Add(uint64(5), uint16(60000), uint16(6), uint8(63), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint16, span uint8, unsorted bool) {
		rng := rand.New(rand.NewPCG(seed, uint64(span)))
		width := uint64(1) << (span % 64)
		draw := func() Code { return Code(rng.Uint64N(width)) }
		sorted := make([]Code, n)
		for i := range sorted {
			sorted[i] = draw()
			if rng.IntN(16) == 0 {
				sorted[i] = ^Code(0) - Code(rng.IntN(2))
			}
		}
		slices.Sort(sorted)
		probes := make([]Code, m)
		for i := range probes {
			switch r := rng.IntN(8); {
			case r == 0 && n > 0:
				probes[i] = sorted[rng.IntN(int(n))]
			case r == 1:
				probes[i] = ^Code(0)
			case r == 2:
				probes[i] = Code(rng.Uint64())
			default:
				probes[i] = draw()
			}
		}
		if !unsorted {
			slices.Sort(probes)
		}
		want := searchRanks(sorted, probes)
		if got := Ranks(sorted, probes); !slices.Equal(got, want) {
			t.Fatalf("Ranks(n=%d, m=%d, sorted=%v) diverged from sort.Search", n, m, !unsorted)
		}
		if unsorted {
			return
		}
		cuts := Cuts(sorted, probes)
		for i := range cuts {
			if int64(cuts[i]) != want[i] {
				t.Fatalf("Cuts(n=%d, m=%d): cut %d = %d, want %d", n, m, i, cuts[i], want[i])
			}
		}
	})
}

// ranksSink keeps BenchmarkRanks' calls from being optimized away.
var ranksSink []int64

// BenchmarkRanks times one sorted probe list against many sorted shards:
// the histogramming step of a round on every rank of a world. The
// 256 × 2 000 rows are comm_bound's shape (92 probes: its rounds' median)
// across gaps from n/m = 1 to 50; 1 Mi × 33 is data_bound's.
func BenchmarkRanks(b *testing.B) {
	for _, sh := range []struct{ shards, n, m int }{
		{256, 2000, 40}, {256, 2000, 92}, {256, 2000, 300}, {256, 2000, 2000}, {1, 1 << 20, 33},
	} {
		rng := rand.New(rand.NewPCG(uint64(sh.n), uint64(sh.m)))
		shards := make([][]Code, sh.shards)
		for s := range shards {
			shards[s] = make([]Code, sh.n)
			for i := range shards[s] {
				shards[s][i] = Code(rng.Uint64())
			}
			slices.Sort(shards[s])
		}
		probes := make([]Code, sh.m)
		for i := range probes {
			probes[i] = Code(rng.Uint64())
		}
		slices.Sort(probes)
		b.Run(fmt.Sprintf("shards=%d/n=%d/m=%d", sh.shards, sh.n, sh.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range shards {
					ranksSink = Ranks(s, probes)
				}
			}
		})
	}
}
