package merge

import (
	"math/bits"

	"hssort/internal/codes"
)

// The short-run regime. After the all-to-all at p ranks a rank merges up
// to p runs of N/p² keys each: at p = 256 with 2000 keys per rank, 256
// runs of ~8. The tournament tree pays log k matches per key, each a
// double indirection into a different run's memory, plus a k-leaf build
// — cache-hopping work that dwarfs the few keys every leaf contributes.
// A run-seeded bottom-up pairwise merge does the same O(n log k)
// compares over two flat arrays read and written sequentially.
//
// shortRunMaxMean bounds the regime: runs averaging at most 64 keys.
// Measured with BenchmarkShortRunMerge (pure code plane, 2.1 GHz Xeon,
// 2 vCPUs, tree → pairwise in µs per merge): k=256 mean 8: 367 → 78;
// k=256 mean 64: 2400 → 570; k=16 mean 8: 7.7 → 2.5; k=16 mean 64:
// 63 → 21; k=8 mean 8: 4.1 → 0.9. On this host the pairwise kernel
// stays ahead on long runs too (k=4 × 256Ki keys: 44 → 16 ms), so the
// bound is not where the speed flips: it is what keeps the kernel's
// O(n) scratch — one to three arrays of n — to at most 64 entries per
// run, against the tree's O(k), so the merges of long runs (the
// data-bound and budgeted shapes) keep their memory profile. The
// constant is not tunable: every rank reads the shape (run count,
// total) off the slices it already holds.
const shortRunMaxMean = 64

// shortRuns reports whether k non-empty runs totalling n keys are in the
// short-run regime.
func shortRuns(k, n int) bool { return n <= k*shortRunMaxMean }

// mergeShortRuns merges the code-ordered runs into out (exactly the
// runs' total length) by stable pairwise passes: adjacent runs merge
// left-before-right, so equal codes keep run-index order — and tie,
// when non-nil, orders equal-code elements first — which is
// element-for-element the sequence CodeTree emits. Scratch is one code
// array on the pure code plane (elements are their own codes) and two
// code arrays plus one element array otherwise; buffers are assigned so
// the last pass lands in out.
func mergeShortRuns[E any](out []E, elemRuns [][]E, codeRuns [][]codes.Code, tie func(E, E) int) {
	n := len(out)
	bounds := make([]int, 1, len(codeRuns)+1) // non-empty run boundaries in the concatenation
	for _, r := range codeRuns {
		if len(r) > 0 {
			bounds = append(bounds, bounds[len(bounds)-1]+len(r))
		}
	}
	runs := len(bounds) - 1
	passes := bits.Len(uint(runs - 1)) // ceil(log2(runs))

	// src holds the runs and dst takes a pass's output; the pair swaps
	// after every pass. The result's storage starts as dst, or as src
	// when the pass count is even, so the last pass writes it.
	pure, isPure := any(out).([]codes.Code)
	isPure = isPure && tie == nil
	srcC, dstC := make([]codes.Code, n), pure
	var srcE, dstE []E
	if !isPure {
		dstC = make([]codes.Code, n)
		srcE, dstE = make([]E, n), out
	}
	if passes%2 == 0 {
		srcC, dstC, srcE, dstE = dstC, srcC, dstE, srcE
	}
	at := srcC
	for _, r := range codeRuns {
		at = at[copy(at, r):]
	}
	if !isPure {
		at := srcE
		for _, r := range elemRuns {
			at = at[copy(at, r):]
		}
	}
	// One pass merges runs (2i, 2i+1) — an odd last run meets an empty
	// partner and is carried over — and halves the boundary list in place.
	for ; runs > 1; runs = (runs + 1) / 2 {
		for i := 0; i < runs; i += 2 {
			lo, mid, hi := bounds[i], bounds[min(i+1, runs)], bounds[min(i+2, runs)]
			if isPure {
				mergeCodes(dstC[lo:hi], srcC[lo:mid], srcC[mid:hi])
			} else {
				mergeCoded(dstC[lo:hi], dstE[lo:hi], srcC[lo:mid], srcC[mid:hi], srcE[lo:mid], srcE[mid:hi], tie)
			}
			bounds[i/2] = lo
		}
		bounds[(runs+1)/2] = n
		srcC, dstC, srcE, dstE = dstC, srcC, dstE, srcE
	}
}

// mergeCodes merges sorted a and b into dst, a first on ties. Which side
// wins a step is a coin flip no branch predictor learns, so the step
// selects arithmetically instead of branching (measured 1.4x).
func mergeCodes(dst, a, b []codes.Code) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		fromB := 0
		if y < x {
			fromB = 1
		}
		dst[k] = x ^ ((x ^ y) & codes.Code(-fromB))
		i += 1 - fromB
		j += fromB
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// mergeCoded is mergeCodes with element payloads in tow: b's head goes
// first only when its code is smaller or, on the prefix plane, when the
// codes collide and tie puts it strictly before a's.
func mergeCoded[E any](dstC []codes.Code, dstE []E, aC, bC []codes.Code, aE, bE []E, tie func(E, E) int) {
	i, j, k := 0, 0, 0
	for i < len(aC) && j < len(bC) {
		if bC[j] < aC[i] || (tie != nil && bC[j] == aC[i] && tie(bE[j], aE[i]) < 0) {
			dstC[k], dstE[k] = bC[j], bE[j]
			j++
		} else {
			dstC[k], dstE[k] = aC[i], aE[i]
			i++
		}
		k++
	}
	copy(dstC[k:], aC[i:])
	k += copy(dstE[k:], aE[i:])
	copy(dstC[k:], bC[j:])
	copy(dstE[k:], bE[j:])
}
