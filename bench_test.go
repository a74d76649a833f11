// Benchmarks of the design choices no benchmark/ probe, ledger workload
// or cmd/experiments experiment measures: §4.3 duplicate tagging
// (Config.TagDuplicates) and the out-of-core plane under a budget that
// really spills. The
// sampling schedules and §3.4 approximate histogramming are benchmarked
// in internal/core, where they are configured.
//
// Run: go test -run '^$' -bench=. -benchmem
package hssort

import (
	"fmt"
	"testing"

	"hssort/internal/dist"
	"hssort/internal/exchange"
)

// BenchmarkAblationDuplicates measures the §4.3 tagging cost and payoff
// on a duplicate-heavy workload.
func BenchmarkAblationDuplicates(b *testing.B) {
	b.ReportAllocs()
	const p, perRank = 16, 20000
	for _, tagged := range []bool{false, true} {
		name := "untagged"
		if tagged {
			name = "tagged"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := dist.Spec{Kind: dist.DuplicateHeavy, Distinct: 8}.Shards(perRank, p, uint64(i)+1)
				b.StartTimer()
				var err error
				_, stats, err = Sort(Config{Procs: p, Epsilon: 0.05, TagDuplicates: tagged, Seed: 3}, shards)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.Imbalance, "imbalance")
		})
	}
}

// BenchmarkSpill is the out-of-core plane's headline: the identical
// sort fully in memory versus under a per-rank MemoryBudget. The local
// sort never spills (the shard is the caller's array, sorted where it
// lies), so the budgets are set against what the budget does bound —
// the streaming exchange's in-flight window of (p-1)·2·ChunkKeys
// keys — at a half and a quarter of it, where incoming streams divert
// to run files. The gap is the cost of compressing, writing, reading
// back and re-merging the diverted runs; compression_pct reports how
// much smaller the delta-varint + flate run files were than the raw
// spilled keys.
func BenchmarkSpill(b *testing.B) {
	b.ReportAllocs()
	const p, n, chunkKeys = 4, 200000, 4096
	window := int64(p-1) * exchange.DefaultStreamWindow * chunkKeys * 8
	budgets := []struct {
		name   string
		budget int64
	}{
		{"in-memory", 0},
		{"2x-budget", window / 2},
		{"4x-budget", window / 4},
	}
	for _, tc := range budgets {
		b.Run(fmt.Sprintf("p=%d/n=%d/%s", p, n, tc.name), func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := dist.Spec{Kind: dist.PowerSkew, Min: 0, Max: 1 << 40}.Shards(n, p, uint64(i)+1)
				b.StartTimer()
				cfg := Config{Procs: p, Epsilon: 0.1, Seed: 3, StreamExchange: true, ChunkKeys: chunkKeys, MemoryBudget: tc.budget}
				var err error
				_, stats, err = Sort(cfg, shards)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(p) * int64(n) * 8)
			if tc.budget > 0 {
				if stats.SpilledBytes == 0 {
					b.Fatal("budgeted benchmark shape never spilled")
				}
				b.ReportMetric(float64(stats.SpilledBytes)/(1<<20), "spilled_MiB")
				b.ReportMetric(100*(1-float64(stats.SpillFileBytes)/float64(stats.SpilledBytes)), "compression_pct")
				b.ReportMetric(float64(stats.PeakResidentBytes)/1024, "resident_KiB")
			}
		})
	}
}
