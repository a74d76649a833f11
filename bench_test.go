// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Shapes — who wins, by what factor, how quantities scale with p — are
// the comparable output; absolute times are host-dependent.
//
// Run: go test -bench=. -benchmem
package hssort

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/bspmodel"
	"hssort/internal/changa"
	"hssort/internal/codes"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/keycoder"
	"hssort/internal/merge"
	"hssort/internal/par"
	"hssort/internal/sampling"
)

// BenchmarkTable51Formulas evaluates the Table 5.1 analytic model. The
// custom metrics are the paper's concrete sample sizes in MB at p = 1e5,
// eps = 5%.
func BenchmarkTable51Formulas(b *testing.B) {
	b.ReportAllocs()
	var rows []bspmodel.Row
	for i := 0; i < b.N; i++ {
		rows = bspmodel.Table51(100000, 1e6, 0.05, 8)
	}
	b.ReportMetric(rows[0].SampleBytes/1e9, "regular_GB")
	b.ReportMetric(rows[1].SampleBytes/1e9, "random_GB")
	b.ReportMetric(rows[2].SampleBytes/1e6, "hss1_MB")
	b.ReportMetric(rows[3].SampleBytes/1e6, "hss2_MB")
	b.ReportMetric(rows[len(rows)-1].SampleBytes/1e6, "hssloglog_MB")
}

// BenchmarkFig41SampleSize runs the splitter-determination protocol at
// increasing bucket counts and reports the measured total sample — the
// Fig 4.1 curves (one sub-benchmark per curve and scale).
func BenchmarkFig41SampleSize(b *testing.B) {
	b.ReportAllocs()
	variants := []struct {
		name   string
		alg    Algorithm
		rounds int
	}{
		{"hss-1round", HSSTheoretical, 1},
		{"hss-2rounds", HSSTheoretical, 2},
		{"hss-constant", HSS, 0},
	}
	for _, v := range variants {
		for _, p := range []int{1024, 4096, 16384} {
			b.Run(fmt.Sprintf("%s/p=%d", v.name, p), func(b *testing.B) {
				b.ReportAllocs()
				n := int64(p) * 512
				var res SimResult
				var err error
				for i := 0; i < b.N; i++ {
					res, err = SimulateSplitters(n, p, 0.05, v.alg, v.rounds, uint64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.TotalSample), "sample_keys")
				b.ReportMetric(float64(res.Rounds), "rounds")
				b.ReportMetric(res.Imbalance, "imbalance")
			})
		}
	}
}

// BenchmarkFig61WeakScaling runs the full distributed sort with a fixed
// per-rank load and reports the Fig 6.1 phase breakdown (fractions of
// total critical-path time).
func BenchmarkFig61WeakScaling(b *testing.B) {
	b.ReportAllocs()
	const perRank = 50000
	for _, p := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, uint64(i)+1)
				b.StartTimer()
				var err error
				_, stats, err = Sort(Config{Procs: p, Epsilon: 0.02, Seed: 7}, shards)
				if err != nil {
					b.Fatal(err)
				}
			}
			total := float64(stats.Total())
			b.ReportMetric(100*float64(stats.LocalSort)/total, "localsort_%")
			b.ReportMetric(100*float64(stats.Splitter)/total, "histogram_%")
			b.ReportMetric(100*float64(stats.Exchange+stats.Merge)/total, "exchange_%")
			b.ReportMetric(stats.Imbalance, "imbalance")
		})
	}
}

// BenchmarkTable61Rounds executes the splitter protocol at the paper's
// true processor counts (4K-32K) with 5p-key oversampling at eps = 0.02
// and reports the observed rounds against the paper's (4 observed,
// bound 8).
func BenchmarkTable61Rounds(b *testing.B) {
	b.ReportAllocs()
	const eps = 0.02
	for _, p := range []int{4096, 8192, 16384, 32768} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			var res SimResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = SimulateSplitters(int64(p)*1000, p, eps, HSS, 0, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
			}
			bound, _ := sampling.ExpectedRoundsFixed(p, eps, 5)
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(bound), "bound")
			b.ReportMetric(res.Imbalance, "imbalance")
		})
	}
}

// BenchmarkFig62ChaNGa sorts the Dwarf/Lambb Morton-key workloads with
// HSS and classic histogram sort over virtual-processor buckets; the
// reported rounds and splitter-phase share reproduce Fig 6.2's HSS-vs-Old
// comparison.
func BenchmarkFig62ChaNGa(b *testing.B) {
	b.ReportAllocs()
	const procs = 8
	const particles = 100000
	for _, ds := range changa.Datasets {
		base := make([][]uint64, procs)
		for r := 0; r < procs; r++ {
			base[r] = changa.ShardKeys(ds, particles, r, procs, 77)
		}
		for _, alg := range []Algorithm{HSS, HistogramSort} {
			b.Run(fmt.Sprintf("%s/%s", ds.Name, alg), func(b *testing.B) {
				b.ReportAllocs()
				var stats Stats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					in := make([][]uint64, procs)
					for r := range base {
						in[r] = slices.Clone(base[r])
					}
					b.StartTimer()
					var err error
					_, stats, err = Sort(Config{
						Procs: procs, Algorithm: alg, Buckets: 4 * procs,
						RoundRobinBuckets: true, Epsilon: 0.05, Seed: 5,
					}, in)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(stats.Rounds), "rounds")
				b.ReportMetric(float64(stats.TotalSample), "probe_keys")
				b.ReportMetric(stats.Imbalance, "imbalance")
			})
		}
	}
}

// BenchmarkApproxOracle measures §3.4 rank queries: build cost is
// excluded; each iteration answers a 64-probe batch.
func BenchmarkApproxOracle(b *testing.B) {
	b.ReportAllocs()
	const procs = 16
	const perRank = 50000
	shards := dist.Spec{Kind: dist.Gaussian}.Shards(perRank, procs, 3)
	probes := make([]int64, 64)
	for i := range probes {
		probes[i] = int64(i) << 54
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproxRanks(shards, probes, 0.05, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSampling compares the fixed-oversampling production
// schedule (§6.1.2) against the theoretical ratio schedule (§3.3) at the
// same ε: rounds vs sample-size trade-off.
func BenchmarkAblationSampling(b *testing.B) {
	b.ReportAllocs()
	const p = 4096
	n := int64(p) * 1000
	for _, v := range []struct {
		name   string
		alg    Algorithm
		rounds int
	}{
		{"fixed-f5", HSS, 0},
		{"theoretical-k2", HSSTheoretical, 2},
		{"theoretical-k5", HSSTheoretical, 5},
		{"scanning-1round", HSSOneRound, 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var res SimResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = SimulateSplitters(n, p, 0.05, v.alg, v.rounds, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.TotalSample), "sample_keys")
		})
	}
}

// BenchmarkAblationApproxHistogram compares exact local histogramming
// against the §3.4 representative-sample shortcut inside the full sort.
func BenchmarkAblationApproxHistogram(b *testing.B) {
	b.ReportAllocs()
	const p, perRank = 16, 50000
	for _, approx := range []bool{false, true} {
		name := "exact"
		if approx {
			name = "approx"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, uint64(i)+1)
				b.StartTimer()
				var err error
				_, stats, err = Sort(Config{Procs: p, Epsilon: 0.05, Approx: approx, Seed: 3}, shards)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.Imbalance, "imbalance")
			b.ReportMetric(float64(stats.Splitter.Microseconds()), "splitter_us")
		})
	}
}

// BenchmarkAblationNodeLevel compares the flat sort against the §6.1
// two-level node sort: total message count is the §6.1 claim.
func BenchmarkAblationNodeLevel(b *testing.B) {
	b.ReportAllocs()
	const p, perRank = 32, 20000
	for _, v := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Procs: p, Epsilon: 0.05, Seed: 3}},
		{"node-c4", Config{Procs: p, Algorithm: NodeHSS, CoresPerNode: 4, Epsilon: 0.05, Seed: 3}},
		{"node-c8", Config{Procs: p, Algorithm: NodeHSS, CoresPerNode: 8, Epsilon: 0.05, Seed: 3}},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, uint64(i)+1)
				b.StartTimer()
				var err error
				_, stats, err = Sort(v.cfg, shards)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.TotalMsgs), "messages")
			b.ReportMetric(stats.Imbalance, "imbalance")
		})
	}
}

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

// BenchmarkBaselinesEndToEnd races every algorithm on the same uniform
// workload — the headline comparison at equal ε.
func BenchmarkBaselinesEndToEnd(b *testing.B) {
	b.ReportAllocs()
	const p, perRank = 16, 30000
	for _, alg := range []Algorithm{HSS, HSSOneRound, SampleSortRegular, SampleSortRandom, HistogramSort, Radix, Bitonic} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, uint64(i)+1)
				b.StartTimer()
				var err error
				_, stats, err = Sort(Config{Procs: p, Algorithm: alg, Epsilon: 0.05, Seed: 3}, shards)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.Imbalance, "imbalance")
			b.ReportMetric(float64(stats.TotalSample), "probe_keys")
		})
	}
}

// BenchmarkStreamExchange races the materializing data plane against the
// streaming chunked exchange inside the full HSS sort, on a data-bound
// shape (parity expected: merge work dominates either way) and the
// over-partitioned communication-bound shape where streaming merges p
// per-sender streams instead of sorting and merging B·p bucket runs.
// The reported overlap_us and inflight_KiB come from the new Stats
// fields; in-flight stays bounded by the flow-control window regardless
// of shape.
func BenchmarkStreamExchange(b *testing.B) {
	b.ReportAllocs()
	shapes := []struct {
		name string
		cfg  Config
		p, n int
	}{
		{"data-bound/p=8/n=100000", Config{Procs: 8, Epsilon: 0.1, Seed: 3}, 8, 100000},
		{"comm-bound/p=64/B=256/n=2000", Config{Procs: 64, Buckets: 256, Epsilon: 0.1, Seed: 3}, 64, 2000},
	}
	for _, shape := range shapes {
		for _, streaming := range []bool{false, true} {
			name := shape.name + "/materializing"
			if streaming {
				name = shape.name + "/streaming"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var stats Stats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					shards := dist.Spec{Kind: dist.Uniform}.Shards(shape.n, shape.p, uint64(i)+1)
					b.StartTimer()
					cfg := shape.cfg
					cfg.StreamExchange = streaming
					if streaming {
						// A few chunks per pair, so chunk interleaving
						// (and with it exchange/merge overlap) happens.
						cfg.ChunkKeys = 4096
					}
					var err error
					_, stats, err = Sort(cfg, shards)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(shape.p) * int64(shape.n) * 8)
				if streaming {
					b.ReportMetric(float64(stats.ExchangeOverlap.Microseconds()), "overlap_us")
					b.ReportMetric(float64(stats.PeakInFlightBytes)/1024, "inflight_KiB")
				}
			})
		}
	}
}

// BenchmarkCodePath is the compute-plane headline: the full sort on the
// comparator oracle (CodePathOff) versus the code-space fast path
// (CodePathOn), on local-sort-dominated shapes (big shards, few ranks)
// for each key type with a built-in coder, plus the payload-carrying KV
// record plane. Throughput (SetBytes) counts key payload only.
func BenchmarkCodePath(b *testing.B) {
	b.ReportAllocs()
	const p, perRank = 8, 200000
	paths := []struct {
		name string
		cp   CodePath
	}{
		{"comparator", CodePathOff},
		{"code", CodePathOn},
	}

	shardsU := make([][]uint64, p)
	shardsI := make([][]int64, p)
	shardsF := make([][]float64, p)
	shardsKV := make([][]KV[int64, int32], p)
	for r := 0; r < p; r++ {
		rng := rand.New(rand.NewPCG(uint64(r)+1, 99))
		shardsU[r] = make([]uint64, perRank)
		shardsI[r] = make([]int64, perRank)
		shardsF[r] = make([]float64, perRank)
		shardsKV[r] = make([]KV[int64, int32], perRank/2)
		for i := 0; i < perRank; i++ {
			shardsU[r][i] = rng.Uint64()
			shardsI[r][i] = rng.Int64() - (1 << 62)
			shardsF[r][i] = rng.NormFloat64() * 1e9
		}
		for i := range shardsKV[r] {
			shardsKV[r][i] = KV[int64, int32]{Key: rng.Int64(), Val: int32(i)}
		}
	}

	// The per-iteration shard clone runs with the timer stopped, so the
	// published numbers measure only the sort.
	runCase := func(b *testing.B, name string, keyBytes int64, n int, sort func(b *testing.B, cp CodePath) error) {
		for _, path := range paths {
			b.Run(name+"/"+path.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := sort(b, path.cp); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(p) * int64(n) * keyBytes)
			})
		}
	}

	cfg := Config{Procs: p, Epsilon: 0.1, Seed: 3}
	runCase(b, "uint64", 8, perRank, func(b *testing.B, cp CodePath) error {
		b.StopTimer()
		in := cloneAny(shardsU)
		b.StartTimer()
		_, _, err := Sort(withCodePath(cfg, cp), in)
		return err
	})
	runCase(b, "int64", 8, perRank, func(b *testing.B, cp CodePath) error {
		b.StopTimer()
		in := cloneAny(shardsI)
		b.StartTimer()
		_, _, err := Sort(withCodePath(cfg, cp), in)
		return err
	})
	runCase(b, "float64", 8, perRank, func(b *testing.B, cp CodePath) error {
		b.StopTimer()
		in := cloneAny(shardsF)
		b.StartTimer()
		_, _, err := Sort(withCodePath(cfg, cp), in)
		return err
	})
	runCase(b, "kv-int64-int32", 8, perRank/2, func(b *testing.B, cp CodePath) error {
		b.StopTimer()
		in := cloneAny(shardsKV)
		b.StartTimer()
		_, _, err := SortKV(withCodePath(cfg, cp), in)
		return err
	})
	// The streaming exchange on the code plane: codes travel in the
	// chunks and the incremental merge compares raw uint64s.
	streamCfg := Config{Procs: p, Epsilon: 0.1, Seed: 3, StreamExchange: true}
	runCase(b, "uint64-streaming", 8, perRank, func(b *testing.B, cp CodePath) error {
		b.StopTimer()
		in := cloneAny(shardsU)
		b.StartTimer()
		_, _, err := Sort(withCodePath(streamCfg, cp), in)
		return err
	})
}

// BenchmarkByteKeys measures the prefix-code plane against the pure
// comparator plane on variable-length byte-string keys. hashlike keys
// (32-char hex digests) have effectively distinct 8-byte prefixes —
// the regime where the radix local sort, code-keyed partition, and
// code-tree merges run comparator-free and the prefix plane should win.
// urllike keys all share the exactly-8-byte "https://" scheme, so every
// prefix code collides: the plane degrades to comparator tie-breaks and
// single-bucket saturation — the honest worst case, reported alongside.
func BenchmarkByteKeys(b *testing.B) {
	b.ReportAllocs()
	const p, perRank = 8, 100000
	inputs := []struct {
		name     string
		kind     dist.ByteKind
		keyBytes int64 // mean key length, for the throughput metric
	}{
		{"hashlike", dist.HashLike, 32},
		{"urllike-shared-prefix", dist.URLLike, 30},
	}
	paths := []struct {
		name string
		cp   CodePath
	}{
		{"comparator", CodePathOff},
		{"prefix", CodePathOn},
	}
	for _, in := range inputs {
		shards := dist.ByteSpec{Kind: in.kind}.Shards(perRank, p, 41)
		for _, path := range paths {
			b.Run(in.name+"/"+path.name, func(b *testing.B) {
				b.ReportAllocs()
				cfg := Config{Procs: p, Epsilon: 0.1, Seed: 3, CodePath: path.cp}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					work := cloneAny(shards)
					b.StartTimer()
					if _, _, err := SortBytes(cfg, work); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(p) * int64(perRank) * in.keyBytes)
			})
		}
	}
}

// BenchmarkTransportBackends compares the simulated byte-accounted
// backend (TransportSim) against the zero-copy in-process fast path
// (TransportInproc) on the three main algorithm families. The comm-bound
// shapes (many ranks, microshards — the splitter protocol dominates, as
// at the paper's real processor counts) isolate per-message transport
// overhead: pair queues and targeted wakeups buy inproc a consistent
// win there. The data-bound shape shows the ceiling once local sort and
// merge dominate the critical path and the backends converge.
func BenchmarkTransportBackends(b *testing.B) {
	b.ReportAllocs()
	shapes := []struct {
		name       string
		p, perRank int
		algs       []Algorithm
	}{
		{"comm-bound/p=192/n=16", 192, 16, []Algorithm{HSS, SampleSortRegular, HistogramSort}},
		{"comm-bound/p=256/n=8", 256, 8, []Algorithm{HSS}},
		{"data-bound/p=8/n=100000", 8, 100000, []Algorithm{HSS}},
	}
	for _, shape := range shapes {
		for _, alg := range shape.algs {
			for _, tr := range []Transport{TransportSim, TransportInproc} {
				b.Run(fmt.Sprintf("%s/%s/%s", shape.name, alg, tr), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						shards := dist.Spec{Kind: dist.Uniform}.Shards(shape.perRank, shape.p, uint64(i)+1)
						b.StartTimer()
						_, _, err := Sort(Config{
							Procs: shape.p, Algorithm: alg, Epsilon: 0.1, Seed: 3, Transport: tr,
						}, shards)
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkSorterReuse measures the engine-reuse amortization the
// service API exists for: repeated small sorts through (a) the one-shot
// Sort wrapper that builds and tears down the whole simulated machine
// per call, (b) a long-lived Sorter reusing the transport, worker pool
// and scratch, and (c) the same Sorter with a prepared Plan so each
// sort also skips splitter determination (0 histogram rounds —
// asserted). The comparable output is (a) vs (b) vs (c) per shape.
func BenchmarkSorterReuse(b *testing.B) {
	ctx := context.Background()
	shapes := []struct {
		name    string
		p       int
		perRank int
		stream  bool
	}{
		{"p=32/n=2k", 32, 2000, false},
		{"p=64/n=1k", 64, 1000, false},
		{"p=32/n=2k/stream", 32, 2000, true},
	}
	for _, sh := range shapes {
		cfg := Config{Procs: sh.p, Epsilon: 0.1, Seed: 7, Transport: TransportInproc}
		if sh.stream {
			cfg.StreamExchange = true
			cfg.ChunkKeys = 512
		}
		shards := dist.Spec{Kind: dist.Gaussian}.Shards(sh.perRank, sh.p, 11)

		b.Run(sh.name+"/one-shot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Sort(cfg, cloneShards(shards)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/engine-reuse", func(b *testing.B) {
			b.ReportAllocs()
			s, err := New[int64](cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Sort(ctx, cloneShards(shards)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/plan-reuse", func(b *testing.B) {
			b.ReportAllocs()
			s, err := New[int64](cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			plan, err := s.Plan(ctx, shards)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rounds int
			for i := 0; i < b.N; i++ {
				_, stats, err := s.SortWithPlan(ctx, plan, cloneShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				rounds = stats.Rounds
			}
			if rounds != 0 {
				b.Fatalf("plan-reuse sort histogrammed: %d rounds", rounds)
			}
			b.ReportMetric(float64(rounds), "hist_rounds")
		})
	}
}

// BenchmarkTCPTransport places the wire backend on the transport
// comparison: the same sorts as BenchmarkTransportBackends' data-bound
// shape, over a loopback mesh of real sockets (serialization, framing,
// kernel round trips) versus the in-memory backends. The mesh is built
// once per sub-benchmark (engine reuse), matching how a deployment
// amortizes bootstrap; rank counts stay modest because a full mesh is
// p·(p-1)/2 socket pairs. The gap to inproc is the measured price of
// crossing a socket — the baseline any multi-machine run starts from.
func BenchmarkTCPTransport(b *testing.B) {
	ctx := context.Background()
	shapes := []struct {
		name       string
		p, perRank int
		stream     bool
	}{
		{"data-bound/p=4/n=100000", 4, 100000, false},
		{"data-bound/p=4/n=100000/stream", 4, 100000, true},
		{"comm-bound/p=16/n=1000", 16, 1000, false},
	}
	for _, sh := range shapes {
		for _, tr := range []Transport{TransportSim, TransportInproc, TransportTCP} {
			b.Run(sh.name+"/"+tr.String(), func(b *testing.B) {
				b.ReportAllocs()
				cfg := Config{Procs: sh.p, Epsilon: 0.1, Seed: 3, Transport: tr, StreamExchange: sh.stream}
				engine, err := New[int64](cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer engine.Close()
				shards := dist.Spec{Kind: dist.Uniform}.Shards(sh.perRank, sh.p, 11)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					work := cloneShards(shards)
					b.StartTimer()
					if _, _, err := engine.Sort(ctx, work); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWorkers measures the intra-rank multicore compute plane: the
// four parallel kernels in isolation (radix local sort, partition cuts,
// codec passes, k-way merge) and the end-to-end sort, each swept over
// worker-pool sizes. On a multicore host the kernel rows scale with w
// until memory bandwidth saturates; Workers=1 rows are the serial
// regression guard (the pool's w=1 path must cost what the plain serial
// kernels cost). Run on a single-core host, all rows coincide — the
// checked-in artifact records which regime measured it.
func BenchmarkWorkers(b *testing.B) {
	b.ReportAllocs()
	const n = 400000
	workersSweep := []int{1, 2, 4, 8}

	rng := rand.New(rand.NewPCG(8, 73))
	baseCodes := make([]codes.Code, n)
	baseKeys := make([]int64, n)
	for i := 0; i < n; i++ {
		baseCodes[i] = codes.Code(rng.Uint64())
		baseKeys[i] = rng.Int64() - (1 << 62)
	}
	sortedKeys := slices.Clone(baseKeys)
	slices.Sort(sortedKeys)
	splitters := make([]int64, 255)
	for i := range splitters {
		splitters[i] = sortedKeys[(i+1)*n/256]
	}
	coder := keycoder.Int64{}
	sortedCodes := codes.EncodeSlice(coder, sortedKeys)
	splitterCodes := codes.EncodeSlice(coder, splitters)
	mergeRuns := make([][]codes.Code, 8)
	for r := range mergeRuns {
		run := make([]codes.Code, n/8)
		for i := range run {
			run[i] = codes.Code(rng.Uint64())
		}
		slices.Sort(run)
		mergeRuns[r] = run
	}

	for _, w := range workersSweep {
		pool := par.New(w)
		name := fmt.Sprintf("w=%d", w)

		b.Run("localsort/"+name, func(b *testing.B) {
			b.ReportAllocs()
			scratch := make([]codes.Code, n)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(scratch, baseCodes)
				b.StartTimer()
				codes.SortPar(scratch, pool)
			}
			b.SetBytes(8 * n)
		})
		b.Run("partition/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exchange.PartitionPar(sortedKeys, splitters, cmp.Compare[int64], pool)
			}
			b.SetBytes(8 * n)
		})
		b.Run("partition-bycode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exchange.PartitionByCodePar(sortedKeys, sortedCodes, splitterCodes, pool)
			}
			b.SetBytes(8 * n)
		})
		b.Run("codec/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var enc []codes.Code
			for i := 0; i < b.N; i++ {
				enc = codes.EncodeIntoPar(coder, baseKeys, enc, pool)
				codes.DecodeSlicePar(coder, enc, pool)
			}
			b.SetBytes(2 * 8 * n)
		})
		b.Run("merge/"+name, func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]codes.Code, 0, n)
			for i := 0; i < b.N; i++ {
				dst = merge.Runs(dst[:0], mergeRuns, codes.Compare, nil, false, pool, nil)
			}
			b.SetBytes(8 * n)
		})
	}

	// End-to-end: the acceptance shape (p=4 ranks x 100k keys per rank)
	// through the full HSS pipeline on the sim transport.
	const p, perRank = 4, 100000
	shards := dist.Spec{Kind: dist.Uniform, Min: 0, Max: 1 << 40}.Shards(perRank, p, 79)
	for _, w := range workersSweep {
		b.Run(fmt.Sprintf("endtoend/w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			s, err := New[int64](Config{Procs: p, Epsilon: 0.1, Seed: 3, Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := cloneShards(shards)
				b.StartTimer()
				if _, _, err := s.Sort(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(p) * int64(perRank) * 8)
		})
	}
}

// BenchmarkSpill is the out-of-core plane's headline: the identical
// sort fully in memory versus under a per-rank MemoryBudget. The local
// sort never spills (the shard is the caller's array, sorted where it
// lies), so the budgets are set against what the budget does bound —
// the streaming exchange's in-flight window of (p-1)·Window·ChunkKeys
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
