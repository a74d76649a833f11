package hssort

import (
	"context"
	"runtime"
	"testing"
	"time"

	"hssort/internal/dist"
)

// TestWorkersCloseNoLeak asserts that an engine whose sorts fanned out
// over a worker pool leaves no goroutines behind after Close — the pool
// is pure fork-join (no persistent workers), so the engine's teardown
// contract is unchanged by Workers > 1.
func TestWorkersCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	shards := dist.Spec{Kind: dist.Uniform}.Shards(bigN, 4, 71)
	s, err := New[int64](Config{Procs: 4, Epsilon: 0.1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Sort(context.Background(), cloneShards(shards)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s", runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
