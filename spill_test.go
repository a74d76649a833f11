package hssort

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"hssort/internal/dist"
	"hssort/internal/spill"
)

// TestSpillDirLifecycle pins the on-disk contract of an explicit
// Config.SpillDir: per-rank subdirectories appear under it, and Close
// removes them (no orphaned run files survive the engine).
func TestSpillDirLifecycle(t *testing.T) {
	const p, perRank = 4, 20000
	dir := t.TempDir()
	shards := dist.Spec{Kind: dist.Uniform, Min: 0, Max: 1 << 40}.Shards(perRank, p, 3)
	s, err := New[int64](Config{Procs: p, Epsilon: 0.1, MemoryBudget: int64(perRank) * 8 / 4, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != p {
		t.Fatalf("engine claimed %d rank directories under SpillDir, want %d", len(ents), p)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "hssort-rank-") {
			t.Fatalf("unexpected entry %q under SpillDir", e.Name())
		}
	}
	outs, stats, err := s.Sort(t.Context(), cloneShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, shards, outs)
	if stats.SpilledBytes == 0 {
		t.Fatal("SpilledBytes = 0, the out-of-core plane never engaged")
	}
	// After the sort returns, every run file has been consumed and
	// removed — only the (empty) rank directories remain.
	var leftover []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			leftover = append(leftover, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("run files leaked after sort: %v", leftover)
	}
	s.Close()
	if ents, err = os.ReadDir(dir); err != nil {
		t.Fatal(err)
	} else if len(ents) != 0 {
		t.Fatalf("Close left %d entries under SpillDir", len(ents))
	}
}

// TestSpillConfigValidation pins the constructor's out-of-core
// admission matrix: every rejected shape fails at New, not mid-sort.
func TestSpillConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		frag string
	}{
		{"negative-budget", Config{Procs: 2, MemoryBudget: -1}, "MemoryBudget -1 < 0"},
		{"dir-without-budget", Config{Procs: 2, SpillDir: "/tmp/x"}, "SpillDir is set but MemoryBudget is 0"},
		{"tagged", Config{Procs: 2, MemoryBudget: 1 << 20, TagDuplicates: true}, "incompatible with TagDuplicates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New[int64](tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("New = %v, want error containing %q", err, tc.frag)
			}
		})
	}
	t.Run("pointered-key", func(t *testing.T) {
		_, err := NewFunc[string](Config{Procs: 2, MemoryBudget: 1 << 20}, func(a, b string) int { return strings.Compare(a, b) })
		if err == nil || !strings.Contains(err.Error(), "fixed-size key type") {
			t.Fatalf("New = %v, want fixed-size key type error", err)
		}
	})
	t.Run("prefix-plane", func(t *testing.T) {
		_, err := NewBytes(Config{Procs: 2, MemoryBudget: 1 << 20})
		if err == nil || !strings.Contains(err.Error(), "prefix plane") {
			t.Fatalf("NewBytes = %v, want prefix-plane rejection", err)
		}
	})
}

// TestSpillStatsSnapshot pins the serialization of the new counters:
// present and named when nonzero, omitted when the plane is off.
func TestSpillStatsSnapshot(t *testing.T) {
	st := Stats{SpilledBytes: 7, SpillFileBytes: 5, SpillReads: 3, PeakResidentBytes: 11}
	b, err := st.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"spilledBytes", "spillFileBytes", "spillReads", "peakResidentBytes"} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("snapshot %s lacks %q", b, key)
		}
	}
	if b, err = (Stats{}).MarshalJSON(); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(b), "spill") {
		t.Fatalf("zero stats still serialize spill fields: %s", b)
	}
}

// TestBudgetedSortBorrowsShard: an int64 Sort under a budget below
// shard plus scatter scratch borrows the consumed shard as the scatter
// kernel's scratch. Its output is byte-identical to the unbudgeted
// engine's, a warm sort allocates no more than the in-place kernel's
// did, the spill-managed peak stays within the budget, and Plan — which
// does not consume — leaves its shards alone.
// Decorated (KV) and int32 keys, whose shards cannot hold the codes,
// still take the in-place kernel.
func TestBudgetedSortBorrowsShard(t *testing.T) {
	const p, perRank, reps = 4, 1 << 17, 4
	budget := int64(perRank) * 8 / 2
	var inPlace, scatter atomic.Int64
	spill.KernelHook = func(ip bool) {
		if ip {
			inPlace.Add(1)
		} else {
			scatter.Add(1)
		}
	}
	defer func() { spill.KernelHook = nil }()
	shards := dist.Spec{Kind: dist.Zipfian}.Shards(perRank, p, 11)

	for _, workers := range []int{1, 2} {
		cfg := Config{Procs: p, Workers: workers}
		ref, err := New[int64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Sort(t.Context(), cloneShards(shards))
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		cfg.MemoryBudget = budget
		s, err := New[int64](cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain := cloneShards(shards)
		if _, err := s.Plan(t.Context(), plain); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, shards) {
			t.Fatalf("workers=%d: Plan changed its input shards", workers)
		}
		inputs := make([][][]int64, reps+1)
		for i := range inputs {
			inputs[i] = cloneShards(shards)
		}
		inPlace.Store(0)
		scatter.Store(0)
		got, stats, err := s.Sort(t.Context(), inputs[reps]) // warm
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: budgeted output differs from the unbudgeted engine's", workers)
		}
		if stats.PeakResidentBytes > budget {
			t.Fatalf("workers=%d: PeakResidentBytes %d > budget %d", workers, stats.PeakResidentBytes, budget)
		}
		if inPlace.Load() != 0 || scatter.Load() != p {
			t.Fatalf("workers=%d: %d in-place and %d scatter local sorts, want 0 and %d", workers, inPlace.Load(), scatter.Load(), p)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			if _, _, err := s.Sort(t.Context(), inputs[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		s.Close()
		// With the in-place kernel this sort allocated 41.4 B/key, the
		// spill writers' compressors most of it; scatter scratch of the
		// engine's own would add 8.
		perKey := float64(after.TotalAlloc-before.TotalAlloc) / reps / (p * perRank)
		if perKey > 42 && !raceEnabled {
			t.Fatalf("workers=%d: a warm budgeted sort allocated %.2f B/key, want <= 42", workers, perKey)
		}
	}

	kv, err := NewKV[int64, uint32](Config{Procs: p, MemoryBudget: budget / 2})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	recs := make([][]KV[int64, uint32], p)
	for r, sh := range shards {
		for i, k := range sh {
			recs[r] = append(recs[r], KV[int64, uint32]{Key: k, Val: uint32(i)})
		}
	}
	narrow, err := New[int32](Config{Procs: p, MemoryBudget: budget / 2})
	if err != nil {
		t.Fatal(err)
	}
	defer narrow.Close()
	keys32 := make([][]int32, p)
	for r, sh := range shards {
		for _, k := range sh {
			keys32[r] = append(keys32[r], int32(k>>32))
		}
	}
	inPlace.Store(0)
	scatter.Store(0)
	if _, _, err := kv.Sort(t.Context(), recs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := narrow.Sort(t.Context(), keys32); err != nil {
		t.Fatal(err)
	}
	if inPlace.Load() != 2*p || scatter.Load() != 0 {
		t.Fatalf("KV and int32: %d in-place and %d scatter local sorts, want %d and 0", inPlace.Load(), scatter.Load(), 2*p)
	}
}
