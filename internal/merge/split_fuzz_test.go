package merge

import (
	"encoding/binary"
	"slices"
	"testing"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// FuzzSplitRuns feeds arbitrary byte strings to the sub-splitter picker
// as (parts, run count, code data) and asserts its contract: per run the
// cuts are monotone, in range, and covering, and no code value is split
// across two parts — then cross-checks that the induced parallel merge
// equals the serial one. Byte values map to a narrow code span, so the
// fuzzed inputs are duplicate-heavy by construction (the hard case);
// all-equal and skewed seeds are planted explicitly.
func FuzzSplitRuns(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(8), uint8(2), []byte{5, 5, 5, 5, 5, 5, 5, 5}) // all-equal
	f.Add(uint8(3), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 255})
	f.Add(uint8(2), uint8(5), []byte{})
	skew := make([]byte, 200)
	for i := range skew {
		if i%10 == 0 {
			skew[i] = byte(i)
		} // 90% zeros
	}
	f.Add(uint8(6), uint8(4), skew)
	wide := make([]byte, 64)
	binary.LittleEndian.PutUint64(wide, ^uint64(0))
	f.Add(uint8(5), uint8(3), wide)
	f.Fuzz(func(t *testing.T, partsB, kB uint8, data []byte) {
		parts := int(partsB)%16 + 1
		k := int(kB)%8 + 1
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
		cuts := SplitRuns(runs, parts)
		checkCuts(t, runs, cuts, parts)
		want := KWay(runs, codes.Compare)
		got := Runs(nil, runs, codes.Compare, nil, false, par.New(parts), nil)
		if !slices.Equal(got, want) {
			t.Fatalf("parts=%d k=%d: ParMerge diverged from KWay", parts, k)
		}
	})
}
