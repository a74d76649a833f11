package hssort

import (
	"flag"
	"math"
	"os"
	"slices"
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
// realizes. With NaNs present, New's engine must fall back to the
// comparator plane — bit-identical output to NewFunc's, NaNs first —
// instead of silently reordering.
func TestCodePathNaNGuard(t *testing.T) {
	run(t, cell{key: "float64", cfg: Config{Epsilon: 0.5}, in: input{dist: "full+nan", p: 2, n: 300, seed: 1}})

	// Records with NaN keys take the same guard.
	nan := math.NaN()
	kvShards := [][]KV[float64, int32]{{{Key: nan, Val: 1}, {Key: 1, Val: 2}}, {{Key: 2, Val: 3}}}
	outs, _, err := SortKV(Config{Procs: 2, Epsilon: 0.5}, cloneAny(kvShards))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, o := range outs {
		n += len(o)
	}
	if n != 3 {
		t.Fatalf("SortKV with NaN keys lost records: %d", n)
	}
}

// TestCodePathConfigErrors: a Config.Coder of the wrong type fails
// loudly, and one of the right type puts NewFunc on the code plane.
func TestCodePathConfigErrors(t *testing.T) {
	shards := dist.Spec{Kind: dist.Uniform}.Shards(100, 2, 1)

	// A Config.Coder of the wrong type.
	if _, _, err := Sort(Config{Procs: 2, Coder: 42}, cloneShards(shards)); err == nil {
		t.Error("bogus Config.Coder did not fail")
	}

	// A custom coder through Config.Coder unlocks the code plane for
	// SortFunc, and with it HistogramSort's key arithmetic, which
	// SortFunc without a coder rejects.
	byDiff := func(a, b int64) int { return int(a - b) }
	if _, _, err := SortFunc(Config{Procs: 2, Algorithm: HistogramSort}, [][]int64{{5, 1}, {3, 2}}, byDiff); err == nil {
		t.Error("HistogramSort through SortFunc without a coder did not fail")
	}
	ordered := [][]int64{{5, 1}, {3, 2}}
	outs, _, err := SortFunc(Config{Procs: 2, Algorithm: HistogramSort, Coder: Coder[int64](int64Coder{})}, ordered, byDiff)
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
