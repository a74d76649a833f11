package hssort

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hssort/internal/dist"
)

// TestSpillDirLifecycle pins the on-disk contract of an explicit
// Config.SpillDir: per-rank subdirectories appear under it, and Close
// removes them (no orphaned run files survive the engine).
func TestSpillDirLifecycle(t *testing.T) {
	const p, perRank = 4, 20000
	dir := t.TempDir()
	shards := dist.Spec{Kind: dist.Uniform, Min: 0, Max: 1 << 40}.Shards(perRank, p, 3)
	s, err := New[int64](Config{Procs: p, Algorithm: HSS, Epsilon: 0.1, MemoryBudget: int64(perRank) * 8 / 4, SpillDir: dir})
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
