package hssort

import (
	"flag"
	"math"
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

// TestCodePathNaNGuard: NaN is the one float64 value whose comparator
// order (below everything, per cmp.Compare) no order-preserving code
// realizes. With NaNs present, the default CodePathAuto must fall back
// to the comparator plane — bit-identical output to CodePathOff, NaNs
// first — and CodePathOn must fail loudly instead of silently
// reordering.
func TestCodePathNaNGuard(t *testing.T) {
	run(t, cell{key: "float64", cfg: Config{Epsilon: 0.5}, in: input{dist: "full+nan", p: 2, n: 300, seed: 1}})
	nan := math.NaN()
	if _, _, err := Sort(Config{Procs: 2, CodePath: CodePathOn, Epsilon: 0.5}, [][]float64{{5, nan, 1}, {3, nan, 2}}); err == nil {
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
