package merge

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// treeMerge is the reference the short-run kernel must reproduce: the
// tournament tree over every run, whatever the shape.
func treeMerge[E any](elemRuns [][]E, codeRuns [][]codes.Code, tie func(E, E) int) []E {
	t := NewCodeTreeTie(tie)
	for r := range codeRuns {
		i := t.AddRun(codeRuns[r], elemRuns[r])
		t.CloseRun(i)
	}
	out := []E{}
	for {
		e, ok := t.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// shortRunShape draws k sorted code runs of length 0..maxLen (about one
// in four empty) over a code space of the given width: a narrow space
// makes duplicate codes across and within runs the common case.
func shortRunShape(rng *rand.Rand, k, maxLen int, space uint64) [][]codes.Code {
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

// srRec is a record whose payload says where it came from, so a merge
// that reorders equal keys is caught.
type srRec struct {
	key      codes.Code
	run, idx int32
}

// checkShortRunPlanes merges keyRuns on the three code planes — pure
// codes, records under an injective code, records under a coarser prefix
// code with a comparator tie-break — through the kernel itself and
// through every public entry that dispatches to it, and requires each
// output to equal the tournament tree's element for element. It reports
// which side of the shortRuns threshold the shape fell on.
func checkShortRunPlanes(t *testing.T, keyRuns [][]codes.Code) (short bool) {
	t.Helper()
	nonEmpty, total := 0, 0
	recRuns := make([][]srRec, len(keyRuns))
	prefixRuns := make([][]codes.Code, len(keyRuns))
	for r, run := range keyRuns {
		if len(run) > 0 {
			nonEmpty, total = nonEmpty+1, total+len(run)
		}
		recRuns[r] = make([]srRec, len(run))
		prefixRuns[r] = make([]codes.Code, len(run))
		for i, c := range run {
			recRuns[r][i] = srRec{c, int32(r), int32(i)}
			prefixRuns[r][i] = c >> 2
		}
	}
	keyOf := func(e srRec) uint64 { return uint64(e.key) }
	prefixOf := func(e srRec) uint64 { return uint64(e.key >> 2) }
	tie := func(a, b srRec) int { return codes.Compare(a.key, b.key) }
	pool := par.New(1)

	wantPure := treeMerge(keyRuns, keyRuns, nil)
	wantRec := treeMerge(recRuns, keyRuns, nil)
	wantPrefix := treeMerge(recRuns, prefixRuns, tie)
	if !slices.Equal(wantRec, wantPrefix) {
		t.Fatal("reference trees disagree across planes") // same total order by construction
	}
	pure, rec, prefix := make([]codes.Code, total), make([]srRec, total), make([]srRec, total)
	mergeShortRuns(pure, keyRuns, keyRuns, nil)
	mergeShortRuns(rec, recRuns, keyRuns, nil)
	mergeShortRuns(prefix, recRuns, prefixRuns, tie)
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"kernel/pure", slices.Equal(pure, wantPure)},
		{"kernel/records", slices.Equal(rec, wantRec)},
		{"kernel/prefix", slices.Equal(prefix, wantPrefix)},
		{"KWayByCode/pure", slices.Equal(KWayByCode(keyRuns, codes.ExtractCode), wantPure)},
		{"KWayByCode/records", slices.Equal(KWayByCode(recRuns, keyOf), wantRec)},
		{"KWayByCodeTie/prefix", slices.Equal(KWayByCodeTie(recRuns, prefixOf, tie), wantPrefix)},
		{"ParMergeByCode/pure", slices.Equal(ParMergeByCode(nil, keyRuns, codes.ExtractCode, pool), wantPure)},
		{"ParMergeByCodeTie/prefix", slices.Equal(ParMergeByCodeTie(nil, recRuns, prefixOf, tie, pool), wantPrefix)},
	} {
		if !c.ok {
			t.Errorf("k=%d non-empty=%d total=%d: %s diverged from the tournament tree", len(keyRuns), nonEmpty, total, c.name)
		}
	}
	return shortRuns(nonEmpty, total)
}

// TestShortRunMergeMatchesTree: over run counts from 2 to 1000, run
// lengths 0..128 with empty runs interleaved, and
// wide and duplicate-heavy code spaces, the pairwise kernel and every
// entry dispatching to it emit exactly what CodeTree emits on every
// plane — payload order among equal codes included — on both sides of
// the threshold.
func TestShortRunMergeMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 256))
	sides := map[bool]int{}
	for _, k := range []int{2, 15, 16, 17, 256, 1000} {
		for _, maxLen := range []int{0, 1, 8, 2 * shortRunMaxMean, 4 * shortRunMaxMean} {
			for _, space := range []uint64{3, 64, 1 << 63} {
				sides[checkShortRunPlanes(t, shortRunShape(rng, k, maxLen, space))]++
			}
		}
	}
	// Exactly at the threshold, and one key over it.
	at := make([][]codes.Code, 16)
	for i := range at {
		at[i] = make([]codes.Code, shortRunMaxMean)
		for j := range at[i] {
			at[i][j] = codes.Code(rng.Uint64N(500))
		}
		slices.Sort(at[i])
	}
	if !checkShortRunPlanes(t, at) {
		t.Error("shape at the threshold not in the short-run regime")
	}
	at[3] = slices.Insert(at[3], 0, 0)
	if checkShortRunPlanes(t, at) {
		t.Error("shape one key over the threshold still in the short-run regime")
	}
	if sides[true] == 0 || sides[false] == 0 {
		t.Errorf("threshold sides covered: short=%d tree=%d, want both", sides[true], sides[false])
	}
}

// FuzzShortRunMerge cuts arbitrary bytes into many tiny runs — byte
// values are the codes, so collisions across runs are the norm — and
// holds the pairwise kernel to the tournament tree's output on all three
// planes.
func FuzzShortRunMerge(f *testing.F) {
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
		k := int(kB)%1024 + 1
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
		checkShortRunPlanes(t, runs)
	})
}

// BenchmarkShortRunMerge is the measurement behind shortRunMaxMean: the
// tournament tree against the pairwise kernel on k
// runs of a given mean length, pure code plane.
func BenchmarkShortRunMerge(b *testing.B) {
	for _, k := range []int{8, 16, 256} {
		for _, mean := range []int{8, 64, 512} {
			rng := rand.New(rand.NewPCG(uint64(k), uint64(mean)))
			runs := make([][]codes.Code, k)
			total := 0
			for i := range runs {
				r := make([]codes.Code, mean/2+rng.IntN(mean+1))
				for j := range r {
					r[j] = codes.Code(rng.Uint64())
				}
				slices.Sort(r)
				runs[i], total = r, total+len(r)
			}
			out := make([]codes.Code, total)
			name := fmt.Sprintf("k=%d/mean=%d", k, mean)
			b.Run(name+"/tree", func(b *testing.B) {
				b.SetBytes(int64(total) * 8)
				for i := 0; i < b.N; i++ {
					t := NewCodeTree[codes.Code]()
					for _, r := range runs {
						t.CloseRun(t.AddRun(r, r))
					}
					for j := range out {
						out[j], _ = t.Next()
					}
				}
			})
			b.Run(name+"/pairwise", func(b *testing.B) {
				b.SetBytes(int64(total) * 8)
				for i := 0; i < b.N; i++ {
					mergeShortRuns(out, runs, runs, nil)
				}
			})
		}
	}
}
