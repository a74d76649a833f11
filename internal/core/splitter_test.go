package core

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/codes"
	"hssort/internal/histogram"
)

// TestIntervalSpansCodePlaneMatchesComparator: the code plane locates
// interval bounds through codes.Ranks (Lo+1 standing in for "strictly
// above Lo"); the comparator plane gallops bound by bound. Both search
// from the previous answer, so both must cut the same spans — and so
// draw the same sample from the same random stream — for absent bounds,
// bounds outside the local keys, duplicate keys on a bound, and the top
// code as a lower bound (where Lo+1 would wrap), at gaps between bounds
// from under 1 (400 intervals in 40 keys) to 10^3 (one in 2 000).
func TestIntervalSpansCodePlaneMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	const top = ^uint64(0)
	for _, n := range []int{0, 1, 40, 2000} {
		for _, nIvs := range []int{1, 3, 60, 400} {
			for _, span := range []uint64{50, 1 << 40} {
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = rng.Uint64N(span)
					if rng.IntN(10) == 0 {
						keys[i] = top - rng.Uint64N(2) // pile some keys onto the top codes
					}
				}
				slices.Sort(keys)
				// Disjoint ascending intervals from sorted cut points; the
				// first may lack Lo, the last may lack Hi or start at top.
				cuts := make([]uint64, 2*nIvs)
				for i := range cuts {
					cuts[i] = rng.Uint64N(span + span/4)
				}
				slices.Sort(cuts)
				ivs := make([]histogram.Interval[uint64], nIvs)
				for i := range ivs {
					ivs[i] = histogram.Interval[uint64]{Lo: cuts[2*i], HasLo: true, Hi: cuts[2*i+1], HasHi: true}
				}
				ivs[0].HasLo = rng.IntN(2) == 0
				switch last := &ivs[nIvs-1]; rng.IntN(3) {
				case 0:
					last.HasHi = false
				case 1:
					last.Lo, last.HasHi = top, false
				}

				cs := make([]codes.Code, n)
				for i, k := range keys {
					cs[i] = codes.Code(k)
				}
				civs := make([]histogram.Interval[codes.Code], nIvs)
				for i, iv := range ivs {
					civs[i] = histogram.Interval[codes.Code]{Lo: codes.Code(iv.Lo), HasLo: iv.HasLo, Hi: codes.Code(iv.Hi), HasHi: iv.HasHi}
				}
				want := intervalSpans(keys, ivs, cmp.Compare[uint64])
				got := intervalSpans(cs, civs, codes.Compare)
				// A span that is empty either way draws nothing; only
				// non-empty spans must agree index for index.
				for i := range ivs {
					wlo, whi := want[2*i], want[2*i+1]
					glo, ghi := got[2*i], got[2*i+1]
					if (whi > wlo || ghi > glo) && (wlo != glo || whi != ghi) {
						t.Fatalf("n=%d intervals=%d span=%d: interval %d %+v: code plane [%d,%d), comparator plane [%d,%d)",
							n, nIvs, span, i, ivs[i], glo, ghi, wlo, whi)
					}
				}
				a := sampleIntervals(keys, ivs, 0.3, cmp.Compare[uint64], rand.New(rand.NewPCG(1, 2)))
				b := sampleIntervals(cs, civs, 0.3, codes.Compare, rand.New(rand.NewPCG(1, 2)))
				if !slices.EqualFunc(a, b, func(k uint64, c codes.Code) bool { return k == uint64(c) }) {
					t.Fatalf("n=%d intervals=%d span=%d: planes drew different samples", n, nIvs, span)
				}
			}
		}
	}
}
