package hssort

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	"hssort/internal/dist"
	"hssort/internal/exchange"
)

// cloneAny is cloneShards for arbitrary element types.
func cloneAny[K any](shards [][]K) [][]K {
	out := make([][]K, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}

func TestMain(m *testing.M) {
	// Re-exec hook: the multi-process transport test launches this test
	// binary as TCP worker processes (see tcp_test.go).
	if spec := os.Getenv(tcpWorkerEnv); spec != "" {
		os.Exit(runTCPWorker(spec))
	}
	// Every sort in this package's tests re-validates partition inputs:
	// the hot path dropped the per-call O(B) splitter check, so the
	// tests keep the debug assertion armed to catch any pipeline that
	// broadcasts unsorted splitters. Benchmark runs leave it off so
	// they measure the shipped hot path.
	flag.Parse()
	if f := flag.Lookup("test.bench"); f == nil || f.Value.String() == "" {
		exchange.Debug = true
	}
	os.Exit(m.Run())
}

// TestCodePathEquivalence is the code plane's acceptance gate: for every
// algorithm, on both transports, with both the materializing and the
// streaming exchange, a sort on the code plane (CodePathOn) must produce
// rank-identical output to the comparator oracle (CodePathOff). One
// matrix cell = one (algorithm, transport, exchange plane) triple.
func TestCodePathEquivalence(t *testing.T) {
	const p, perRank = 6, 3000
	algs := []struct {
		name string
		cfg  Config
		kind dist.Kind
	}{
		{"hss", Config{Procs: p, Algorithm: HSS, Epsilon: 0.05, Seed: 3}, dist.PowerSkew},
		{"hss-1round", Config{Procs: p, Algorithm: HSSOneRound, Epsilon: 0.1, Seed: 5}, dist.Uniform},
		{"hss-theory", Config{Procs: p, Algorithm: HSSTheoretical, Epsilon: 0.1, Seed: 7}, dist.Gaussian},
		{"hss-approx", Config{Procs: p, Algorithm: HSS, Epsilon: 0.1, Approx: true, Seed: 7}, dist.Uniform},
		{"hss-overpartition", Config{Procs: p, Algorithm: HSS, Buckets: 4 * p, Epsilon: 0.1, Seed: 9}, dist.Uniform},
		{"hss-roundrobin", Config{Procs: p, Algorithm: HSS, Buckets: 2 * p, RoundRobinBuckets: true, Epsilon: 0.1, Seed: 9}, dist.Exponential},
		{"histogramsort", Config{Procs: p, Algorithm: HistogramSort, Epsilon: 0.1, Seed: 11}, dist.Exponential},
		{"samplesort-regular", Config{Procs: p, Algorithm: SampleSortRegular, Epsilon: 0.1, Seed: 13}, dist.Uniform},
		{"samplesort-random", Config{Procs: p, Algorithm: SampleSortRandom, Epsilon: 0.1, Seed: 15}, dist.DuplicateHeavy},
		{"node-hss", Config{Procs: p, Algorithm: NodeHSS, CoresPerNode: 2, Epsilon: 0.1, Seed: 17}, dist.Uniform},
	}
	for _, tc := range algs {
		for _, tr := range []Transport{TransportSim, TransportInproc} {
			for _, streaming := range []bool{false, true} {
				plane := "materializing"
				if streaming {
					plane = "streaming"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, tr, plane), func(t *testing.T) {
					shards := dist.Spec{Kind: tc.kind, Min: 0, Max: 1 << 40, Distinct: 64}.Shards(perRank, p, 41)

					oracle := tc.cfg
					oracle.Transport = tr
					oracle.CodePath = CodePathOff
					if streaming {
						oracle.StreamExchange = true
						oracle.ChunkKeys = 512
					}
					wantOuts, wantStats, err := Sort(oracle, cloneShards(shards))
					if err != nil {
						t.Fatalf("comparator oracle: %v", err)
					}

					coded := oracle
					coded.CodePath = CodePathOn
					gotOuts, gotStats, err := Sort(coded, cloneShards(shards))
					if err != nil {
						t.Fatalf("code plane: %v", err)
					}

					for r := range wantOuts {
						if !slices.Equal(gotOuts[r], wantOuts[r]) {
							t.Fatalf("rank %d: code-plane output differs from the comparator oracle (%d vs %d keys)",
								r, len(gotOuts[r]), len(wantOuts[r]))
						}
					}
					// The protocol is a function of key order and seeds
					// only; the planes must have executed the same one.
					if gotStats.Rounds != wantStats.Rounds || gotStats.TotalSample != wantStats.TotalSample {
						t.Errorf("protocol diverged: code plane %d rounds/%d sample, oracle %d rounds/%d sample",
							gotStats.Rounds, gotStats.TotalSample, wantStats.Rounds, wantStats.TotalSample)
					}
					if gotStats.Imbalance != wantStats.Imbalance {
						t.Errorf("imbalance diverged: %v vs %v", gotStats.Imbalance, wantStats.Imbalance)
					}
				})
			}
		}
	}
}

// TestCodePathEquivalenceKeyTypes sweeps the built-in coders: uint64
// keys with the sign bit exercised, float64 keys including negatives and
// subnormals (but not -0/NaN, whose handling the comparator and the IEEE
// total order define differently — see the keycoder docs), and int32
// keys through the widening coder.
func TestCodePathEquivalenceKeyTypes(t *testing.T) {
	const p, perRank = 5, 2000
	t.Run("uint64", func(t *testing.T) {
		shards := make([][]uint64, p)
		rng := rand.New(rand.NewPCG(1, 23))
		for r := range shards {
			shards[r] = make([]uint64, perRank)
			for i := range shards[r] {
				shards[r][i] = rng.Uint64() // full range, sign bit set half the time
			}
		}
		checkTypeEquivalence(t, shards)
	})
	t.Run("float64", func(t *testing.T) {
		shards := make([][]float64, p)
		rng := rand.New(rand.NewPCG(2, 29))
		for r := range shards {
			shards[r] = make([]float64, perRank)
			for i := range shards[r] {
				switch rng.IntN(16) {
				case 0:
					shards[r][i] = math.SmallestNonzeroFloat64 * float64(1+rng.IntN(100))
				case 1:
					shards[r][i] = -math.SmallestNonzeroFloat64 * float64(1+rng.IntN(100))
				case 2:
					shards[r][i] = 0
				default:
					shards[r][i] = rng.NormFloat64() * 1e6
				}
			}
		}
		checkTypeEquivalence(t, shards)
	})
	t.Run("int32", func(t *testing.T) {
		shards := make([][]int32, p)
		rng := rand.New(rand.NewPCG(3, 31))
		for r := range shards {
			shards[r] = make([]int32, perRank)
			for i := range shards[r] {
				shards[r][i] = int32(rng.Uint32())
			}
		}
		// HistogramSort is excluded here: it synthesizes probe keys from
		// bisection midpoints via Decode, and the widening Int32 coder is
		// not surjective — Decode truncates codes outside the image, so
		// the planes legitimately explore different probes (each output
		// is a correct sort, but bucket boundaries may differ). The
		// sampling algorithms only ever probe existing keys, where any
		// injective order-preserving coder gives exact equivalence.
		checkTypeEquivalence(t, shards, HSS, SampleSortRegular)
	})
	t.Run("int64-streaming", func(t *testing.T) {
		shards := make([][]int64, p)
		rng := rand.New(rand.NewPCG(4, 37))
		for r := range shards {
			shards[r] = make([]int64, perRank)
			for i := range shards[r] {
				shards[r][i] = rng.Int64() - (1 << 62)
			}
		}
		cfg := Config{Procs: p, Epsilon: 0.1, Seed: 3, StreamExchange: true, ChunkKeys: 256}
		want, _, err := Sort(withCodePath(cfg, CodePathOff), cloneAny(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Sort(withCodePath(cfg, CodePathOn), cloneAny(shards))
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if !slices.Equal(got[r], want[r]) {
				t.Fatalf("rank %d diverged", r)
			}
		}
	})
}

func withCodePath(cfg Config, cp CodePath) Config {
	cfg.CodePath = cp
	return cfg
}

// checkTypeEquivalence sorts the shards with the given algorithms
// (default: HSS, histogram sort, sample sort) on both planes and demands
// rank-identical output.
func checkTypeEquivalence[K interface {
	~int32 | ~int64 | ~uint64 | ~float64
}](t *testing.T, shards [][]K, algs ...Algorithm) {
	t.Helper()
	p := len(shards)
	if len(algs) == 0 {
		algs = []Algorithm{HSS, HistogramSort, SampleSortRegular}
	}
	for _, alg := range algs {
		cfg := Config{Procs: p, Algorithm: alg, Epsilon: 0.1, Seed: 7}
		want, _, err := Sort(withCodePath(cfg, CodePathOff), cloneAny(shards))
		if err != nil {
			t.Fatalf("%v oracle: %v", alg, err)
		}
		got, _, err := Sort(withCodePath(cfg, CodePathOn), cloneAny(shards))
		if err != nil {
			t.Fatalf("%v code plane: %v", alg, err)
		}
		for r := range want {
			if !slices.Equal(got[r], want[r]) {
				t.Fatalf("%v: rank %d diverged (%d vs %d keys)", alg, r, len(got[r]), len(want[r]))
			}
		}
	}
}

// TestCodePathKVEquivalence: the decorated record plane must deliver the
// same records to the same ranks as the comparator plane — exactly equal
// keys rank by rank, and for each key the same multiset of payloads
// (both planes sort unstably, so the relative order of equal-key records
// is the only permitted difference).
func TestCodePathKVEquivalence(t *testing.T) {
	const p, perRank = 5, 2000
	for _, alg := range []Algorithm{HSS, SampleSortRegular, NodeHSS} {
		for _, streaming := range []bool{false, true} {
			plane := "materializing"
			if streaming {
				plane = "streaming"
			}
			t.Run(fmt.Sprintf("%v/%s", alg, plane), func(t *testing.T) {
				shards := make([][]KV[int64, int32], p)
				rng := rand.New(rand.NewPCG(5, 43))
				id := int32(0)
				for r := range shards {
					shards[r] = make([]KV[int64, int32], perRank)
					for i := range shards[r] {
						shards[r][i] = KV[int64, int32]{Key: rng.Int64N(512), Val: id} // heavy duplicates
						id++
					}
				}
				cfg := Config{Procs: p, Algorithm: alg, Epsilon: 0.1, Seed: 11}
				if alg == NodeHSS {
					cfg.CoresPerNode = 1
				}
				if streaming {
					cfg.StreamExchange = true
					cfg.ChunkKeys = 256
				}
				want, _, err := SortKV(withCodePath(cfg, CodePathOff), cloneAny(shards))
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				got, _, err := SortKV(withCodePath(cfg, CodePathOn), cloneAny(shards))
				if err != nil {
					t.Fatalf("record plane: %v", err)
				}
				for r := range want {
					if len(got[r]) != len(want[r]) {
						t.Fatalf("rank %d: %d vs %d records", r, len(got[r]), len(want[r]))
					}
					wantVals := map[int64][]int32{}
					for i := range want[r] {
						if got[r][i].Key != want[r][i].Key {
							t.Fatalf("rank %d: key sequence diverged at %d", r, i)
						}
						wantVals[want[r][i].Key] = append(wantVals[want[r][i].Key], want[r][i].Val)
					}
					gotVals := map[int64][]int32{}
					for _, rec := range got[r] {
						gotVals[rec.Key] = append(gotVals[rec.Key], rec.Val)
					}
					for k, wv := range wantVals {
						gv := gotVals[k]
						slices.Sort(wv)
						slices.Sort(gv)
						if !slices.Equal(gv, wv) {
							t.Fatalf("rank %d: payload multiset for key %d diverged", r, k)
						}
					}
				}
			})
		}
	}
}

// TestCodePathNaNGuard: NaN is the one float64 value whose comparator
// order (below everything, per cmp.Compare) no order-preserving code
// realizes. With NaNs present, the default CodePathAuto must fall back
// to the comparator plane — bit-identical output to CodePathOff, NaNs
// first — and CodePathOn must fail loudly instead of silently
// reordering.
func TestCodePathNaNGuard(t *testing.T) {
	nan := math.NaN()
	shards := [][]float64{{5, nan, 1}, {3, nan, 2}}
	clone := func() [][]float64 { return cloneAny(shards) }

	want, _, err := Sort(Config{Procs: 2, CodePath: CodePathOff, Epsilon: 0.5}, clone())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Sort(Config{Procs: 2, Epsilon: 0.5}, clone()) // default: auto
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rank %d: %d vs %d keys", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
				t.Fatalf("rank %d: auto diverged from comparator oracle at %d: %v vs %v",
					r, i, got[r][i], want[r][i])
			}
		}
	}
	if !math.IsNaN(want[0][0]) {
		t.Fatal("comparator plane no longer sorts NaN first — update the guard's rationale")
	}

	if _, _, err := Sort(Config{Procs: 2, CodePath: CodePathOn, Epsilon: 0.5}, clone()); err == nil {
		t.Error("CodePathOn accepted NaN keys")
	}

	// Records with NaN keys take the same guard.
	kvShards := [][]KV[float64, int32]{{{Key: nan, Val: 1}, {Key: 1, Val: 2}}, {{Key: 2, Val: 3}}}
	if _, _, err := SortKV(Config{Procs: 2, CodePath: CodePathOn, Epsilon: 0.5}, cloneAny(kvShards)); err == nil {
		t.Error("SortKV CodePathOn accepted NaN keys")
	}
	outs, _, err := SortKV(Config{Procs: 2, Epsilon: 0.5}, cloneAny(kvShards))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, o := range outs {
		n += len(o)
	}
	if n != 3 {
		t.Fatalf("SortKV auto with NaN keys lost records: %d", n)
	}
}

// TestCodePathConfigErrors: misconfigurations fail loudly, not silently.
func TestCodePathConfigErrors(t *testing.T) {
	shards := dist.Spec{Kind: dist.Uniform}.Shards(100, 2, 1)

	// CodePathOn without any coder (opaque key type via SortFunc).
	type opaque struct{ v int64 }
	oShards := [][]opaque{{{1}, {2}}, {{3}, {4}}}
	if _, _, err := SortFunc(Config{Procs: 2, CodePath: CodePathOn}, oShards,
		func(a, b opaque) int { return int(a.v - b.v) }); err == nil {
		t.Error("CodePathOn without a coder did not fail")
	}

	// CodePathOn with TagDuplicates.
	if _, _, err := Sort(Config{Procs: 2, TagDuplicates: true, CodePath: CodePathOn}, cloneShards(shards)); err == nil {
		t.Error("CodePathOn with TagDuplicates did not fail")
	}

	// A Config.Coder of the wrong type.
	if _, _, err := Sort(Config{Procs: 2, Coder: 42}, cloneShards(shards)); err == nil {
		t.Error("bogus Config.Coder did not fail")
	}

	// A custom coder through Config.Coder unlocks the plane for SortFunc.
	ordered := [][]int64{{5, 1}, {3, 2}}
	outs, _, err := SortFunc(Config{Procs: 2, CodePath: CodePathOn, Coder: Coder[int64](int64Coder{})}, ordered,
		func(a, b int64) int { return int(a - b) })
	if err != nil {
		t.Fatalf("custom coder rejected: %v", err)
	}
	var flat []int64
	for _, o := range outs {
		flat = append(flat, o...)
	}
	if !slices.Equal(flat, []int64{1, 2, 3, 5}) {
		t.Fatalf("custom-coder sort produced %v", flat)
	}
}

// int64Coder is a user-style coder supplied through Config.Coder.
type int64Coder struct{}

func (int64Coder) Encode(k int64) uint64 { return uint64(k) ^ (1 << 63) }
func (int64Coder) Decode(c uint64) int64 { return int64(c ^ (1 << 63)) }

// TestCodePathNamesRoundTrip: String and ParseCodePath agree, the
// parser is case-insensitive, and its error names the valid values.
func TestCodePathNamesRoundTrip(t *testing.T) {
	for _, cp := range []CodePath{CodePathAuto, CodePathOff, CodePathOn} {
		got, err := ParseCodePath(cp.String())
		if err != nil || got != cp {
			t.Errorf("ParseCodePath(%q) = %v, %v", cp.String(), got, err)
		}
		name := cp.String()
		for _, variant := range []string{strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			got, err := ParseCodePath(variant)
			if err != nil || got != cp {
				t.Errorf("ParseCodePath(%q) = %v, %v (want case-insensitive match)", variant, got, err)
			}
		}
	}
	_, err := ParseCodePath("abacus")
	if err == nil {
		t.Fatal("unknown code path parsed")
	}
	for _, want := range []string{"auto", "off", "on"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("parse error %q does not list valid value %q", err, want)
		}
	}
	if CodePath(42).String() != "CodePath(42)" {
		t.Error("unknown code path name")
	}
}
