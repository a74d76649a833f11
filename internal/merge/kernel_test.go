package merge

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// stableMerge is the oracle the kernel must reproduce, and shares no
// code with it: concatenate the runs in run-index order and stable-sort
// by code, then by tie. Stability is the run-index tie-break.
func stableMerge[E any](elemRuns [][]E, code func(E) uint64, tie func(E, E) int) []E {
	out := slices.Concat(elemRuns...)
	if out == nil {
		out = []E{}
	}
	slices.SortStableFunc(out, func(a, b E) int {
		if ca, cb := code(a), code(b); ca != cb || tie == nil {
			return codes.Compare(codes.Code(ca), codes.Code(cb))
		}
		return tie(a, b)
	})
	return out
}

// runShape draws k sorted code runs of length 0..maxLen (about one in
// four empty) over a code space of the given width: a narrow space makes
// duplicate codes across and within runs the common case.
func runShape(rng *rand.Rand, k, maxLen int, space uint64) [][]codes.Code {
	runs := make([][]codes.Code, k)
	for i := range runs {
		if rng.IntN(4) == 0 {
			continue
		}
		r := make([]codes.Code, rng.IntN(maxLen+1))
		for j := range r {
			r[j] = codes.Code(rng.Uint64N(space))
		}
		slices.Sort(r)
		runs[i] = r
	}
	return runs
}

// rec is a 24-byte record whose payload says where it came from, so a
// merge that reorders equal keys is caught.
type rec struct {
	key      codes.Code
	run, idx int32
	pad      uint64
}

func recKey(e rec) uint64    { return uint64(e.key) }
func recPrefix(e rec) uint64 { return uint64(e.key >> 2) }
func recCmp(a, b rec) int    { return codes.Compare(a.key, b.key) }

// recRunsOf decorates code runs into record runs and their prefix codes
// (the key with its two low bits dropped: a non-injective code whose
// collisions recCmp must repair).
func recRunsOf(keyRuns [][]codes.Code) (recRuns [][]rec, prefixRuns [][]codes.Code) {
	recRuns = make([][]rec, len(keyRuns))
	prefixRuns = make([][]codes.Code, len(keyRuns))
	for r, run := range keyRuns {
		recRuns[r] = make([]rec, len(run))
		prefixRuns[r] = make([]codes.Code, len(run))
		for i, c := range run {
			recRuns[r][i] = rec{key: c, run: int32(r), idx: int32(i), pad: ^uint64(c)}
			prefixRuns[r][i] = c >> 2
		}
	}
	return recRuns, prefixRuns
}

// checkKernelPlanes merges keyRuns on every plane — pure codes, records
// under an injective code, records under a coarser prefix code with a
// comparator tie-break, records under the comparator alone — through the
// kernel itself and through every public entry over it, serial and
// fanned over a pool, and requires each output to equal the stable sort
// of the concatenation element for element.
func checkKernelPlanes(t *testing.T, keyRuns [][]codes.Code) {
	t.Helper()
	total := 0
	for _, run := range keyRuns {
		total += len(run)
	}
	recRuns, prefixRuns := recRunsOf(keyRuns)
	wantPure := stableMerge(keyRuns, codes.ExtractCode, nil)
	wantRec := stableMerge(recRuns, recKey, nil)
	if got := stableMerge(recRuns, recPrefix, recCmp); !slices.Equal(got, wantRec) {
		t.Fatal("oracles disagree across planes") // same total order by construction
	}
	pure, byKey, byPrefix, byCmp := make([]codes.Code, total), make([]rec, total), make([]rec, total), make([]rec, total)
	var sc Scratch[rec] // shared across planes: a reused scratch must not leak state
	mergeInto(pure, nil, keyRuns, keyRuns, nil, nil)
	mergeInto(byKey, nil, recRuns, keyRuns, nil, &sc)
	mergeInto(byPrefix, nil, recRuns, prefixRuns, recCmp, &sc)
	mergeInto(byCmp, nil, recRuns, nil, recCmp, &sc)
	pool := par.New(3)
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"kernel/pure", slices.Equal(pure, wantPure)},
		{"kernel/records", slices.Equal(byKey, wantRec)},
		{"kernel/prefix", slices.Equal(byPrefix, wantRec)},
		{"kernel/comparator", slices.Equal(byCmp, wantRec)},
		{"KWay/pure", slices.Equal(KWay(keyRuns, codes.Compare), wantPure)},
		{"KWay/records", slices.Equal(KWay(recRuns, recCmp), wantRec)},
		{"KWayByCode/pure", slices.Equal(KWayByCode(keyRuns, codes.ExtractCode), wantPure)},
		{"KWayByCode/records", slices.Equal(KWayByCode(recRuns, recKey), wantRec)},
		{"KWayByCodeTie/prefix", slices.Equal(KWayByCodeTie(recRuns, recPrefix, recCmp), wantRec)},
		{"ParMergeByCode/pure", slices.Equal(ParMergeByCode(nil, keyRuns, codes.ExtractCode, pool), wantPure)},
		{"Runs/prefix/pool", slices.Equal(Runs(nil, recRuns, recCmp, recPrefix, true, pool, &sc), wantRec)},
		{"Runs/comparator/pool", slices.Equal(Runs(nil, recRuns, recCmp, nil, false, pool, &sc), wantRec)},
	} {
		if !c.ok {
			t.Errorf("k=%d total=%d: %s diverged from the stable sort", len(keyRuns), total, c.name)
		}
	}
}

// TestMergeKernelMatchesStableSort: over run counts from 2 to 1000, run
// lengths 0..256 with empty runs interleaved, k = 2, 3, 4 long runs of
// 256 Ki keys, and wide and duplicate-heavy code spaces, the kernel and
// every entry over it emit exactly the stable sort of the concatenated
// runs on every plane — payload order among equal codes included.
func TestMergeKernelMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 256))
	for _, k := range []int{2, 3, 15, 16, 17, 256, 1000} {
		for _, maxLen := range []int{0, 1, 8, 128, 256} {
			for _, space := range []uint64{3, 64, 1 << 63} {
				checkKernelPlanes(t, runShape(rng, k, maxLen, space))
			}
		}
	}
	for _, k := range []int{2, 3, 4} {
		for _, space := range []uint64{64, 1 << 63} {
			long := make([][]codes.Code, k)
			for i := range long {
				long[i] = make([]codes.Code, 256<<10)
				for j := range long[i] {
					long[i][j] = codes.Code(rng.Uint64N(space))
				}
				slices.Sort(long[i])
			}
			checkKernelPlanes(t, long)
		}
	}
}

// TestMergeCodesEdges holds the two-chain pure merge to slices.Sort of
// the concatenation where its chains start, stop and meet: an empty run,
// one key against many, runs wholly below or above each other, all codes
// equal, odd and even totals, chains that meet exactly in the middle,
// and every split of every sorted multiset of up to 10 keys over three
// values.
func TestMergeCodesEdges(t *testing.T) {
	seq := func(from, step, n int) []codes.Code {
		s := make([]codes.Code, n)
		for i := range s {
			s[i] = codes.Code(from + i*step)
		}
		return s
	}
	check := func(name string, a, b []codes.Code) {
		t.Helper()
		want := slices.Sorted(slices.Values(slices.Concat(a, b)))
		dst := make([]codes.Code, len(want))
		for i := range dst {
			dst[i] = ^codes.Code(0) // a slot left unwritten shows
		}
		mergeCodes(dst[:len(dst):len(dst)], a, b)
		if !slices.Equal(dst, want) {
			t.Fatalf("%s: merge(%v, %v) = %v, want %v", name, a, b, dst, want)
		}
	}
	for _, c := range []struct {
		name string
		a, b []codes.Code
	}{
		{"both empty", nil, nil},
		{"a empty", nil, seq(0, 1, 5)},
		{"b empty", seq(0, 1, 5), nil},
		{"1 vs n", seq(3, 0, 1), seq(0, 1, 9)},
		{"n vs 1", seq(0, 1, 9), seq(3, 0, 1)},
		{"1 vs n, below", seq(0, 0, 1), seq(1, 1, 9)},
		{"1 vs n, above", seq(20, 0, 1), seq(1, 1, 9)},
		{"a wholly below b", seq(0, 1, 6), seq(10, 1, 7)},
		{"a wholly above b", seq(10, 1, 6), seq(0, 1, 7)},
		{"all equal, odd total", seq(4, 0, 5), seq(4, 0, 6)},
		{"all equal, even total", seq(4, 0, 5), seq(4, 0, 5)},
		{"interleaved, odd total", seq(0, 2, 5), seq(1, 2, 4)},
		{"chains meet in the middle", seq(0, 2, 4), seq(1, 2, 4)},
		{"chains meet in the middle, ties", seq(0, 1, 4), seq(0, 1, 4)},
	} {
		check(c.name, c.a, c.b)
	}
	// Every sorted multiset over {0, 1, 2} of up to 10 keys, split every
	// way into a (the keys whose mask bit is set) and b.
	for n := 0; n <= 10; n++ {
		for c0 := 0; c0 <= n; c0++ {
			for c1 := 0; c0+c1 <= n; c1++ {
				keys := slices.Concat(seq(0, 0, c0), seq(1, 0, c1), seq(2, 0, n-c0-c1))
				for mask := 0; mask < 1<<n; mask++ {
					var a, b []codes.Code
					for i, k := range keys {
						if mask>>i&1 == 1 {
							a = append(a, k)
						} else {
							b = append(b, k)
						}
					}
					check("every split", a, b)
				}
			}
		}
	}
}

// FuzzMergeKernel cuts arbitrary bytes into runs — byte values are the
// codes, so collisions across runs are the norm — and holds the kernel
// to the stable-sort oracle on every plane.
func FuzzMergeKernel(f *testing.F) {
	f.Add(uint16(16), []byte{9, 1, 8, 2, 7, 3, 6, 4, 5, 5, 4, 6, 3, 7, 2, 8, 1, 9})
	f.Add(uint16(300), []byte{})
	f.Add(uint16(2), []byte{7, 7, 7, 7, 7, 7, 7, 7})
	ramp := make([]byte, 1024)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	f.Add(uint16(64), ramp)
	f.Add(uint16(1000), ramp)
	f.Fuzz(func(t *testing.T, kB uint16, data []byte) {
		checkKernelPlanes(t, byteRuns(int(kB)%1024+1, data))
	})
}

// byteRuns cuts data into k sorted runs whose codes are the byte values.
func byteRuns(k int, data []byte) [][]codes.Code {
	runs := make([][]codes.Code, k)
	for r := range runs {
		lo, hi := r*len(data)/k, (r+1)*len(data)/k
		run := make([]codes.Code, hi-lo)
		for i, b := range data[lo:hi] {
			run[i] = codes.Code(b)
		}
		slices.Sort(run)
		runs[r] = run
	}
	return runs
}

// BenchmarkMergeKernel times the kernel across the shapes a rank meets:
// few long runs (the data-bound regime) to hundreds of eight-key ones
// (large p), on the pure code plane, 24-byte records under an injective
// code, and records under a prefix code with comparator tie-breaks.
// MB/s counts 8 bytes per key on every plane so the planes compare.
func BenchmarkMergeKernel(b *testing.B) {
	for _, k := range []int{2, 3, 4, 8, 16, 64, 256} {
		for _, shape := range []struct {
			name string
			mean int
		}{{"mean=8", 8}, {"mean=64", 64}, {"total=1Mi", (1 << 20) / k}} {
			rng := rand.New(rand.NewPCG(uint64(k), uint64(shape.mean)))
			keyRuns := make([][]codes.Code, k)
			total := 0
			for i := range keyRuns {
				r := make([]codes.Code, shape.mean/2+rng.IntN(shape.mean+1))
				for j := range r {
					r[j] = codes.Code(rng.Uint64())
				}
				slices.Sort(r)
				keyRuns[i], total = r, total+len(r)
			}
			recRuns, prefixRuns := recRunsOf(keyRuns)
			pure, recs := make([]codes.Code, total), make([]rec, total)
			var scPure Scratch[codes.Code]
			var scRec Scratch[rec]
			name := fmt.Sprintf("k=%d/%s", k, shape.name)
			for _, plane := range []struct {
				name string
				run  func()
			}{
				{"pure", func() { mergeInto(pure, nil, keyRuns, keyRuns, nil, &scPure) }},
				{"record", func() { mergeInto(recs, nil, recRuns, keyRuns, nil, &scRec) }},
				{"tie", func() { mergeInto(recs, nil, recRuns, prefixRuns, recCmp, &scRec) }},
			} {
				b.Run(name+"/"+plane.name, func(b *testing.B) {
					b.SetBytes(int64(total) * 8)
					for i := 0; i < b.N; i++ {
						plane.run()
					}
				})
			}
		}
	}
}
