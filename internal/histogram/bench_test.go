package histogram

import (
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/codes"
	"hssort/internal/keycoder"
)

func benchSorted(n int) []int64 {
	rng := rand.New(rand.NewPCG(1, 2))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int64()
	}
	slices.Sort(out)
	return out
}

// BenchmarkLocalRanks measures the per-round histogram step at two
// shapes: few probes against a large shard (§5.1.2's O(S log(N/p))
// term) and comm_bound's, 92 probes against 2000 local keys, on the
// comparator plane and on the code plane. Both locate sorted probes
// from each previous answer.
func BenchmarkLocalRanks(b *testing.B) {
	for _, sh := range []struct {
		name   string
		n, m   int
		onCode bool
	}{
		{"n=1Mi/m=1Ki", 1 << 20, 1 << 10, false},
		{"n=2000/m=92", 2000, 92, false},
		{"n=2000/m=92/codes", 2000, 92, true},
	} {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			sorted, probes := benchSorted(sh.n), benchSorted(sh.m)
			if sh.onCode {
				toCodes := func(ks []int64) []codes.Code {
					return codes.EncodeSlice[int64](keycoder.Int64{}, ks)
				}
				cs, cp := toCodes(sorted), toCodes(probes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					LocalRanks(cs, cp, codes.Compare)
				}
				return
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LocalRanks(sorted, probes, icmp)
			}
		})
	}
}

// BenchmarkTrackerUpdate measures the central processor's per-round
// bookkeeping over B-1 splitters and S probes.
func BenchmarkTrackerUpdate(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 30
	const buckets = 4096
	probes := make([]int64, 5*buckets)
	ranks := make([]int64, len(probes))
	for i := range probes {
		probes[i] = int64(i) * (n / int64(len(probes)))
		ranks[i] = probes[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := NewTracker[int64](n, buckets, 0.02, icmp)
		b.StartTimer()
		tr.Update(probes, ranks)
	}
}

// BenchmarkScan measures the scanning algorithm over a 2/ε-ratio sample.
func BenchmarkScan(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 30
	const buckets = 1024
	keys := make([]int64, 40*buckets)
	ranks := make([]int64, len(keys))
	for i := range keys {
		keys[i] = int64(i) * (n / int64(len(keys)))
		ranks[i] = keys[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(keys, ranks, n, buckets, 0.05, icmp); err != nil {
			b.Fatal(err)
		}
	}
}
