package core

import (
	"testing"
)

// BenchmarkAblationSampling compares the fixed-oversampling production
// schedule (§6.1.2) against the theoretical ratio schedule (§3.3) and
// one-round scanning (§3.2) at the same ε: rounds vs sample-size
// trade-off, on the central protocol simulator.
//
// Run: go test -run '^$' -bench=Ablation -benchmem ./internal/core
func BenchmarkAblationSampling(b *testing.B) {
	b.ReportAllocs()
	const p = 4096
	n := int64(p) * 1000
	for _, v := range []struct {
		name   string
		sched  Schedule
		rounds int
	}{
		{"fixed-f5", FixedOversampling, 0},
		{"theoretical-k2", Theoretical, 2},
		{"theoretical-k5", Theoretical, 5},
		{"scanning-1round", OneRoundScanning, 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var res SimResult
			var err error
			for i := 0; i < b.N; i++ {
				opt := Options[int64]{Cmp: icmp, Buckets: p, Epsilon: 0.05, Schedule: v.sched, Rounds: v.rounds, Seed: uint64(i) + 1}
				if res, err = SimulateSplitters(n, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.TotalSample), "sample_keys")
		})
	}
}
