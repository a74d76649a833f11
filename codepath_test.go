package hssort

import (
	"flag"
	"os"
	"slices"
	"testing"

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

// TestCodePathNaNGuard: NaN sorts first under cmp.Compare, and the float
// coders encode it below -Inf, so a NaN-bearing input stays on New's and
// NewKV's code plane, rank-identical to the comparator plane of NewFunc.
func TestCodePathNaNGuard(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Epsilon: 0.5}, in: input{dist: "full+nan", p: 2, n: 300, seed: 1}},
		pick(keyType, "float64", "float32", "kv=kv-float64")))
}
