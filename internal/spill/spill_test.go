package spill

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"hssort/internal/codes"
	"hssort/internal/merge"
	"hssort/internal/par"
)

func newTestManager(t *testing.T, budget int64) *Manager {
	t.Helper()
	m, err := NewManager(budget, t.TempDir(), 0)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func readAll[K any](t *testing.T, rd *RunReader[K]) []K {
	t.Helper()
	var out []K
	for {
		chunk, err := rd.NextChunk()
		if err != nil {
			t.Fatalf("NextChunk: %v", err)
		}
		if chunk == nil {
			return out
		}
		out = append(out, chunk...)
	}
}

func TestRoundTripCodes(t *testing.T) {
	m := newTestManager(t, 1<<20)
	rng := rand.New(rand.NewSource(7))
	keys := make([]codes.Code, 10_000)
	for i := range keys {
		keys[i] = codes.Code(rng.Uint64() >> 20) // clustered so delta+flate engage
	}
	slices.Sort(keys)
	w, err := NewWriter[codes.Code](m, 777)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteKeys(keys); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Keys() != int64(len(keys)) {
		t.Fatalf("run.Keys() = %d, want %d", run.Keys(), len(keys))
	}
	rd, err := run.Reader(true)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, rd)
	if !slices.Equal(got, keys) {
		t.Fatalf("round trip mismatch: got %d keys", len(got))
	}
	if _, err := os.Stat(run.Path()); !os.IsNotExist(err) {
		t.Fatalf("run file not removed at EOF: %v", err)
	}
	st := m.TakeCounters()
	if st.SpilledBytes != int64(len(keys))*8 {
		t.Fatalf("SpilledBytes = %d, want %d", st.SpilledBytes, len(keys)*8)
	}
	if st.FileBytes <= 0 || st.FileBytes >= st.SpilledBytes {
		t.Fatalf("expected compression on sorted codes: file=%d spilled=%d", st.FileBytes, st.SpilledBytes)
	}
	if st.Reads == 0 {
		t.Fatal("no frame reads recorded")
	}
}

type record struct {
	A uint64
	B int32
	C [3]byte
}

func TestRoundTripRawRecords(t *testing.T) {
	m := newTestManager(t, 1<<20)
	rng := rand.New(rand.NewSource(11))
	keys := make([]record, 4_321)
	for i := range keys {
		keys[i] = record{A: rng.Uint64(), B: int32(rng.Int31()), C: [3]byte{byte(i), byte(i >> 8), 7}}
	}
	w, err := NewWriter[record](m, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Split across several WriteKeys calls: the run is the concatenation.
	if err := w.WriteKeys(keys[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteKeys(keys[1000:]); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := run.Reader(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rd); !slices.Equal(got, keys) {
		t.Fatalf("round trip mismatch: got %d keys, want %d", len(got), len(keys))
	}
}

func TestEmptyRun(t *testing.T) {
	m := newTestManager(t, 1<<20)
	w, err := NewWriter[int64](m, 128)
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := run.Reader(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rd); len(got) != 0 {
		t.Fatalf("empty run yielded %d keys", len(got))
	}
}

func TestCorruptionDetected(t *testing.T) {
	m := newTestManager(t, 1<<20)
	keys := make([]codes.Code, 5_000)
	for i := range keys {
		keys[i] = codes.Code(i * 3)
	}
	w, err := NewWriter[codes.Code](m, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteKeys(keys); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(run.Path())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "corrupt.spill")
			if err := os.WriteFile(path, mutate(slices.Clone(orig)), 0o644); err != nil {
				t.Fatal(err)
			}
			rd, err := OpenRun[codes.Code](m, path, false)
			if err == nil {
				var got []codes.Code
				for err == nil {
					var chunk []codes.Code
					chunk, err = rd.NextChunk()
					if err == nil && chunk == nil {
						break
					}
					got = append(got, chunk...)
				}
				rd.Close()
				if err == nil && !slices.Equal(got, keys) {
					t.Fatalf("corrupt file decoded to %d garbage keys without error", len(got))
				}
				if err == nil {
					return // mutation did not damage the decoded stream
				}
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error is %T (%v), want *spill.Error", err, err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
		})
	}
	check("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	check("payload-bit-flip", func(b []byte) []byte { b[len(runMagic)+frameHeaderBytes+5] ^= 0x10; return b })
	check("header-flag-flip", func(b []byte) []byte { b[len(runMagic)+8] ^= flagFlate; return b })
	check("count-flip", func(b []byte) []byte { b[len(runMagic)+4] ^= 1; return b })
	check("truncated-mid-frame", func(b []byte) []byte { return b[:len(runMagic)+frameHeaderBytes+3] })
	check("missing-final-marker", func(b []byte) []byte { return b[:len(b)-frameHeaderBytes] })
}

func TestManagerBudgetAndStats(t *testing.T) {
	m := newTestManager(t, 1000)
	if m.WouldExceed(1000) {
		t.Fatal("WouldExceed(budget) on empty manager")
	}
	m.Acquire(800)
	if !m.WouldExceed(300) {
		t.Fatal("WouldExceed missed overflow")
	}
	m.Acquire(100)
	m.Release(900)
	st := m.TakeCounters()
	if st.PeakResident != 900 {
		t.Fatalf("PeakResident = %d, want 900", st.PeakResident)
	}
	if st2 := m.TakeCounters(); st2.PeakResident != 0 {
		t.Fatal("TakeCounters did not reset counters")
	}
	if m.Budget() != 1000 {
		t.Fatalf("Budget = %d", m.Budget())
	}
	var nilM *Manager
	if nilM.Budget() != 0 || nilM.TakeCounters() != (Counters{}) || nilM.Reset() != nil || nilM.Close() != nil {
		t.Fatal("nil Manager methods not nil-safe")
	}
}

func TestManagerResetRemovesOrphans(t *testing.T) {
	m := newTestManager(t, 1<<20)
	w, err := NewWriter[int64](m, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteKeys([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m.Acquire(500)
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(run.Path()); !os.IsNotExist(err) {
		t.Fatal("Reset left an orphaned run file")
	}
	ents, err := os.ReadDir(m.Dir())
	if err != nil || len(ents) != 0 {
		t.Fatalf("spill dir not empty after Reset: %v %d", err, len(ents))
	}
}

func TestManagerClaimsPerRankDir(t *testing.T) {
	base := t.TempDir()
	m1, err := NewManager(1<<20, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(m1.Dir(), "run-999999.spill")
	if err := os.WriteFile(orphan, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A respawned rank 3 wipes its crashed predecessor's leftovers…
	m2, err := NewManager(1<<20, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("respawn did not wipe predecessor's spill dir")
	}
	// …while another rank's directory is untouched.
	m4, err := NewManager(1<<20, base, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m4.Close()
	if m4.Dir() == m2.Dir() {
		t.Fatal("ranks share a spill dir")
	}
}

func TestSpillable(t *testing.T) {
	type podKV struct {
		K uint64
		V [16]byte
	}
	type ptrKV struct {
		K uint64
		V *int
	}
	for _, tc := range []struct {
		name string
		got  bool
		want bool
	}{
		{"int64", Spillable[int64](), true},
		{"code", Spillable[codes.Code](), true},
		{"podKV", Spillable[podKV](), true},
		{"string", Spillable[string](), false},
		{"byteslice", Spillable[[]byte](), false},
		{"ptrKV", Spillable[ptrKV](), false},
	} {
		if tc.got != tc.want {
			t.Errorf("Spillable[%s] = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestLocalSortOverBudgetStaysInRAM pins what the budget means for the
// local sort: a shard over budget is sorted where it lies — same output
// as the in-memory kernel, no run file, no budget traffic, and no more
// than budget/2 of scratch beyond the returned code array.
func TestLocalSortOverBudgetStaysInRAM(t *testing.T) {
	const n = 50_000 // above codes' parallel cutoff, so Workers > 1 fans out
	rng := rand.New(rand.NewSource(42))
	cs := make([]codes.Code, n)
	recs := make([]record, n)
	for i := range cs {
		cs[i] = codes.Code(rng.Uint64())
		recs[i] = record{A: rng.Uint64(), B: int32(i)} // distinct codes: one sorted order
	}
	recCode := func(r record) uint64 { return r.A }
	recCmp := func(a, b record) int { return codes.Compare(codes.Code(a.A), codes.Code(b.A)) }
	for _, workers := range []int{1, 3} {
		pool := par.New(workers)
		t.Run(fmt.Sprintf("code/w%d", workers), func(t *testing.T) {
			checkLocalSortInRAM(t, cs, codes.ExtractCode, codes.Compare, pool)
		})
		t.Run(fmt.Sprintf("tandem/w%d", workers), func(t *testing.T) {
			checkLocalSortInRAM(t, recs, recCode, recCmp, pool)
		})
		t.Run(fmt.Sprintf("cmp/w%d", workers), func(t *testing.T) {
			checkLocalSortInRAM(t, cs, nil, codes.Compare, pool)
		})
	}
}

func checkLocalSortInRAM[K comparable](t *testing.T, input []K, code func(K) uint64, cmp func(K, K) int, pool *par.Pool) {
	t.Helper()
	want := slices.Clone(input)
	wantCodes, _ := LocalSort(nil, want, code, cmp, pool)

	var zero K
	keySize := int64(unsafe.Sizeof(zero))
	budget := int64(len(input)) * keySize / 4 // shard is 4× budget
	m := newTestManager(t, budget)
	local := slices.Clone(input)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gotCodes, err := LocalSort(m, local, code, cmp, pool)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(local, want) || !slices.Equal(gotCodes, wantCodes) {
		t.Fatal("over-budget local sort differs from the in-memory kernel")
	}
	scratch := int64(after.TotalAlloc - before.TotalAlloc)
	if _, pure := any(local).([]codes.Code); !pure {
		scratch -= int64(len(gotCodes)) * 8 // the returned code array is the result, not scratch
	}
	if scratch > budget/2 {
		t.Fatalf("allocated %d bytes of scratch, budget/2 is %d", scratch, budget/2)
	}
	if st := m.TakeCounters(); st != (Counters{}) {
		t.Fatalf("local sort touched the spill plane: %+v", st)
	}
	if ents, err := os.ReadDir(m.Dir()); err != nil || len(ents) != 0 {
		t.Fatalf("local sort left files in the spill dir: %v %d", err, len(ents))
	}
}

// TestLocalSortUnderBudgetScratchFits: a shard that fits its budget is
// sorted with no more memory than the budget — the shard plus every byte
// the kernel allocates, returned codes included — on the pure and the
// decorated plane, serial and fanned out. The decorated plane's scatter
// kernel needs code and payload scratch on top of the codes it returns,
// three times an 8-byte-keyed shard of 16-byte records; that one must
// take the in-place kernel.
func TestLocalSortUnderBudgetScratchFits(t *testing.T) {
	const n = 50_000 // above codes' parallel cutoff, so Workers > 1 fans out
	rng := rand.New(rand.NewSource(43))
	cs := make([]codes.Code, n)
	recs := make([]record, n)
	for i := range cs {
		cs[i] = codes.Code(rng.Uint64())
		recs[i] = record{A: rng.Uint64(), B: int32(i)}
	}
	recCode := func(r record) uint64 { return r.A }
	recCmp := func(a, b record) int { return codes.Compare(codes.Code(a.A), codes.Code(b.A)) }
	budget := int64(n) * int64(unsafe.Sizeof(record{})) * 2 // twice the record shard
	for _, workers := range []int{1, 3} {
		pool := par.New(workers)
		t.Run(fmt.Sprintf("code/w%d", workers), func(t *testing.T) {
			checkLocalSortFits(t, cs, codes.ExtractCode, codes.Compare, pool, budget)
		})
		t.Run(fmt.Sprintf("tandem/w%d", workers), func(t *testing.T) {
			checkLocalSortFits(t, recs, recCode, recCmp, pool, budget)
		})
	}
}

func checkLocalSortFits[K comparable](t *testing.T, input []K, code func(K) uint64, cmp func(K, K) int, pool *par.Pool, budget int64) {
	t.Helper()
	want := slices.Clone(input)
	wantCodes, _ := LocalSort(nil, want, code, cmp, pool)

	m := newTestManager(t, budget)
	local := slices.Clone(input)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gotCodes, err := LocalSort(m, local, code, cmp, pool)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(local, want) || !slices.Equal(gotCodes, wantCodes) {
		t.Fatal("budgeted local sort differs from the in-memory kernel")
	}
	var zero K
	shard := int64(len(input)) * int64(unsafe.Sizeof(zero))
	if used := shard + int64(after.TotalAlloc-before.TotalAlloc); used > budget {
		t.Fatalf("shard %d + allocations %d = %d bytes, budget %d", shard, used-shard, used, budget)
	}
}

func TestLocalSortInMemoryUnderBudget(t *testing.T) {
	m := newTestManager(t, 1<<30)
	local := []codes.Code{5, 3, 9, 1}
	cs, err := LocalSort(m, local, codes.ExtractCode, codes.Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(local) || len(cs) != 4 {
		t.Fatal("in-memory path broken")
	}
	if st := m.TakeCounters(); st.SpilledBytes != 0 {
		t.Fatal("under-budget sort spilled")
	}
}

func TestFromSourcesMergesRunReaders(t *testing.T) {
	m := newTestManager(t, 1<<20)
	rng := rand.New(rand.NewSource(3))
	var runs []*Run[codes.Code]
	var all []codes.Code
	for r := 0; r < 5; r++ {
		keys := make([]codes.Code, 1000+r*300)
		for i := range keys {
			keys[i] = codes.Code(rng.Uint64() % 5000) // plenty of cross-run duplicates
		}
		slices.Sort(keys)
		all = append(all, keys...)
		w, err := NewWriter[codes.Code](m, 200)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteKeys(keys); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	srcs := make([]merge.Source[codes.Code], len(runs))
	for i, run := range runs {
		rd, err := run.Reader(true)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = rd
	}
	st := merge.NewStreamer[codes.Code](codes.Compare, codes.ExtractCode)
	out, err := merge.FromSources(st, srcs, m, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(all)
	if !slices.Equal(out, all) {
		t.Fatalf("merged %d keys, mismatch vs %d expected", len(out), len(all))
	}
}

func TestWriterAbortRemovesFile(t *testing.T) {
	m := newTestManager(t, 1<<20)
	w, err := NewWriter[int64](m, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteKeys([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := w.Path()
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Abort left the run file behind")
	}
	if err := w.WriteKeys([]int64{4}); err == nil {
		t.Fatal("WriteKeys after Abort did not fail")
	}
}
