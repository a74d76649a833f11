package hssort

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hssort/internal/dist"
)

// spillPerRank keys per rank in the equivalence matrix. At 8 bytes per
// int64 key one rank holds spillPerRank*8 bytes, so the quarter budget
// below forces real spilling while staying big enough to cross every
// kernel's serial cutoff when Workers > 1.
const spillPerRank = 20000

// spillBudgets returns the per-rank MemoryBudget values the matrix
// sweeps for a rank holding rankBytes of keys: a quarter of the rank's
// data (the acceptance point) and a heavy squeeze at an eighth. Below
// ~an eighth the budget drops under the merge's structural floor — one
// minimum-size read-back frame per spilled run — and the peak
// legitimately overshoots (see Stats.PeakResidentBytes).
func spillBudgets(rankBytes int64) []int64 {
	return []int64{rankBytes / 4, rankBytes / 8}
}

// TestSpillEquivalence is the out-of-core plane's acceptance gate: on
// all three transports, with both exchange planes, both compute planes
// and serial + full-width worker pools, a sort with MemoryBudget set
// must produce rank-identical output to the unbudgeted in-memory sort,
// report SpilledBytes > 0 (the budget genuinely engaged), keep
// PeakResidentBytes within the budget and leave every rank's budget
// meter back at zero.
func TestSpillEquivalence(t *testing.T) {
	const p = 4
	rankBytes := int64(spillPerRank) * 8
	workerSweepVals := []int{1, runtime.GOMAXPROCS(0)}
	slices.Sort(workerSweepVals)
	workerSweepVals = slices.Compact(workerSweepVals)

	for _, tr := range []Transport{TransportSim, TransportInproc, TransportTCP} {
		for _, streaming := range []bool{false, true} {
			for _, cp := range []CodePath{CodePathOff, CodePathOn} {
				for _, workers := range workerSweepVals {
					plane := "materializing"
					if streaming {
						plane = "streaming"
					}
					t.Run(fmt.Sprintf("%s/%s/%s/workers=%d", tr, plane, cp, workers), func(t *testing.T) {
						shards := dist.Spec{Kind: dist.PowerSkew, Min: 0, Max: 1 << 40}.Shards(spillPerRank, p, 83)

						cfg := Config{Procs: p, Algorithm: HSS, Epsilon: 0.1, Seed: 3, Transport: tr, CodePath: cp, Workers: workers}
						if streaming {
							cfg.StreamExchange = true
							cfg.ChunkKeys = 1024
						}

						wantOuts, wantStats, err := Sort(cfg, cloneShards(shards))
						if err != nil {
							t.Fatalf("in-memory baseline: %v", err)
						}
						if wantStats.SpilledBytes != 0 || wantStats.PeakResidentBytes != 0 {
							t.Fatalf("unbudgeted sort reports spill stats: spilled=%d peak=%d", wantStats.SpilledBytes, wantStats.PeakResidentBytes)
						}

						for _, budget := range spillBudgets(rankBytes) {
							budget := budget
							t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
								bcfg := cfg
								bcfg.MemoryBudget = budget
								s, err := New[int64](bcfg)
								if err != nil {
									t.Fatal(err)
								}
								defer s.Close()
								outs, stats, err := s.Sort(t.Context(), cloneShards(shards))
								if err != nil {
									t.Fatalf("budgeted sort: %v", err)
								}
								// Everything the sort charged — admitted chunks,
								// read-back frames, merge scratch — it released.
								for r, m := range s.spills {
									if m.Room() != m.Budget() {
										t.Errorf("rank %d: %d bytes still charged to the budget after the sort", r, m.Budget()-m.Room())
									}
								}
								for r := range outs {
									if !slices.Equal(outs[r], wantOuts[r]) {
										t.Fatalf("rank %d output diverges from in-memory sort (len %d vs %d)", r, len(outs[r]), len(wantOuts[r]))
									}
								}
								if stats.SpilledBytes == 0 {
									t.Fatalf("budget %d (rank data %d bytes): SpilledBytes = 0, the out-of-core plane never engaged", budget, rankBytes)
								}
								if stats.SpillFileBytes == 0 || stats.SpillReads == 0 {
									t.Fatalf("inconsistent spill stats: %+v", stats)
								}
								if stats.PeakResidentBytes == 0 || stats.PeakResidentBytes > budget {
									t.Fatalf("PeakResidentBytes = %d, want in (0, budget %d]", stats.PeakResidentBytes, budget)
								}
							})
						}
					})
				}
			}
		}
	}
}

// TestSpillEquivalenceAlgorithms sweeps the remaining budget-capable
// algorithms (the HSS baseline is covered by the full matrix above) at
// the quarter budget on both exchange planes: identical output,
// nonzero spill traffic. NodeHSS's streaming exchange holds only two
// 1024-key chunks per rank (one per node-level stream), well inside the
// quarter budget, so it runs at a chunk and a half, where the second
// stream diverts.
func TestSpillEquivalenceAlgorithms(t *testing.T) {
	const p = 4
	quarter := int64(spillPerRank) * 8 / 4
	algs := []struct {
		name string
		cfg  Config
		kind dist.Kind
	}{
		{"hss-one-round", Config{Procs: p, Algorithm: HSSOneRound, Epsilon: 0.1, Seed: 5}, dist.Exponential},
		{"hss-theoretical", Config{Procs: p, Algorithm: HSSTheoretical, Epsilon: 0.2, Seed: 7}, dist.Uniform},
		{"samplesort-regular", Config{Procs: p, Algorithm: SampleSortRegular, Epsilon: 0.1, Seed: 9}, dist.DuplicateHeavy},
		{"samplesort-random", Config{Procs: p, Algorithm: SampleSortRandom, Epsilon: 0.1, Seed: 11}, dist.PowerSkew},
		{"histogramsort", Config{Procs: p, Algorithm: HistogramSort, Epsilon: 0.1, Seed: 13}, dist.Exponential},
		{"node-hss", Config{Procs: p, Algorithm: NodeHSS, CoresPerNode: 2, Epsilon: 0.1, Seed: 15}, dist.Uniform},
	}
	for _, tc := range algs {
		for _, streaming := range []bool{false, true} {
			plane := "materializing"
			if streaming {
				plane = "streaming"
			}
			t.Run(tc.name+"/"+plane, func(t *testing.T) {
				shards := dist.Spec{Kind: tc.kind, Min: 0, Max: 1 << 40, Distinct: 64}.Shards(spillPerRank, p, 97)
				cfg := tc.cfg
				budget := quarter
				if streaming {
					cfg.StreamExchange = true
					cfg.ChunkKeys = 1024
					if cfg.Algorithm == NodeHSS {
						budget = 1024 * 8 * 3 / 2
					}
				}
				wantOuts, _, err := Sort(cfg, cloneShards(shards))
				if err != nil {
					t.Fatalf("in-memory baseline: %v", err)
				}
				bcfg := cfg
				bcfg.MemoryBudget = budget
				outs, stats, err := Sort(bcfg, cloneShards(shards))
				if err != nil {
					t.Fatalf("budgeted sort: %v", err)
				}
				for r := range outs {
					if !slices.Equal(outs[r], wantOuts[r]) {
						t.Fatalf("rank %d output diverges from in-memory sort", r)
					}
				}
				if stats.SpilledBytes == 0 {
					t.Fatalf("SpilledBytes = 0 at budget %d", budget)
				}
				if stats.PeakResidentBytes > budget {
					t.Fatalf("PeakResidentBytes = %d > budget %d", stats.PeakResidentBytes, budget)
				}
			})
		}
	}
}

// TestSpillEquivalenceKV pins the record plane: an out-of-core KV sort
// returns the identical key sequence per rank and preserves the
// key→payload association as a multiset (records with equal keys may
// legally permute among themselves).
func TestSpillEquivalenceKV(t *testing.T) {
	const p, perRank = 4, 20000
	budget := int64(perRank) * 16 / 4 // KV[int64,int32] is 16 bytes padded
	keyShards := dist.Spec{Kind: dist.DuplicateHeavy, Min: 0, Max: 1 << 30, Distinct: 512}.Shards(perRank, p, 41)
	mk := func() [][]KV[int64, int32] {
		shards := make([][]KV[int64, int32], p)
		for r, ks := range keyShards {
			shards[r] = make([]KV[int64, int32], len(ks))
			for i, k := range ks {
				shards[r][i] = KV[int64, int32]{Key: k, Val: int32(r*perRank + i)}
			}
		}
		return shards
	}
	for _, streaming := range []bool{false, true} {
		plane := "materializing"
		if streaming {
			plane = "streaming"
		}
		t.Run(plane, func(t *testing.T) {
			cfg := Config{Procs: p, Algorithm: HSS, Epsilon: 0.1, Seed: 21}
			if streaming {
				cfg.StreamExchange = true
				cfg.ChunkKeys = 1024
			}
			wantOuts, _, err := SortKV(cfg, mk())
			if err != nil {
				t.Fatalf("in-memory baseline: %v", err)
			}
			bcfg := cfg
			bcfg.MemoryBudget = budget
			outs, stats, err := SortKV(bcfg, mk())
			if err != nil {
				t.Fatalf("budgeted sort: %v", err)
			}
			if stats.SpilledBytes == 0 {
				t.Fatalf("SpilledBytes = 0 at budget %d", budget)
			}
			var got, want []KV[int64, int32]
			for r := range outs {
				if len(outs[r]) != len(wantOuts[r]) {
					t.Fatalf("rank %d holds %d records, in-memory sort held %d", r, len(outs[r]), len(wantOuts[r]))
				}
				for i := range outs[r] {
					if outs[r][i].Key != wantOuts[r][i].Key {
						t.Fatalf("rank %d pos %d: key %d, in-memory sort had %d", r, i, outs[r][i].Key, wantOuts[r][i].Key)
					}
				}
				got = append(got, outs[r]...)
				want = append(want, wantOuts[r]...)
			}
			full := func(a, b KV[int64, int32]) int {
				if a.Key != b.Key {
					if a.Key < b.Key {
						return -1
					}
					return 1
				}
				return int(a.Val - b.Val)
			}
			slices.SortFunc(got, full)
			slices.SortFunc(want, full)
			if !slices.Equal(got, want) {
				t.Fatal("payload multiset diverges: some key lost or duplicated its payload")
			}
		})
	}
}

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
