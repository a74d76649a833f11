package merge

import (
	"math/bits"
	"unsafe"

	"hssort/internal/codes"
)

// The merge kernel: a run-seeded bottom-up pairwise merge. Every merge in
// this package — materialized or streaming, code-keyed or under a
// comparator, two long runs or a thousand eight-key ones — is this one
// body. It pays the same ceil(log2 k) compares per key as a tournament
// tree, but over flat arrays read and written sequentially instead of k
// leaves hopped between with a double indirection per match, which is
// what a cache and a prefetcher want: BenchmarkMergeKernel has it at
// memory speed at every shape (k = 2…256, mean run length 8 to 256 Ki,
// pure codes, 24-byte records, comparator tie-breaks).
//
// The first pass reads the runs where they lie and merges neighbours
// (2i, 2i+1) into one of two buffers; every later pass merges
// neighbouring results from one buffer into the other, and the buffers
// are assigned so the last pass lands in the caller's output. One of
// the two buffers is that output, the other is the Scratch: nothing for
// k ≤ 2, n elements otherwise (code-keyed records also carry their codes
// along, in one or two n-entry code arrays). Neighbours merge
// left-before-right, so equal keys keep run-index order — after the
// prefix plane's comparator tie-break — which makes the output the
// stable sort of the concatenated runs.

// Scratch is the kernel's working memory, kept by whoever merges
// repeatedly (a rank's exchange.Scratch, a RunQueue) so a warm caller
// allocates nothing per merge. The zero value is ready; a nil *Scratch
// is accepted everywhere and means "allocate per call". A Scratch serves
// one merge at a time.
type Scratch[E any] struct {
	elems  []E
	codes  [2][]codes.Code
	bounds []int
}

// Clear drops the element references the merges since the last Clear
// left in the scratch, so a parked engine does not pin a sort's data.
func (sc *Scratch[E]) Clear() {
	clear(sc.elems)
	sc.elems = sc.elems[:0]
}

// BorrowCodes returns n codes of the scratch's first code array, grown
// if needed and kept for the merges that follow, for a caller that needs
// code scratch between merges (a rank's local sort). The contents are
// unspecified, and the next merge may overwrite them. A nil Scratch
// returns a fresh array.
func (sc *Scratch[E]) BorrowCodes(n int) []codes.Code {
	if sc == nil {
		return make([]codes.Code, n)
	}
	if len(sc.codes[0]) < n {
		sc.codes[0] = grown(sc.codes[0], n)
	}
	return sc.codes[0][:n]
}

// plane says which arrays a merge orders by: codes alone (the elements
// are their own codes), codes with element payloads in tow and an
// optional tie comparator, or the comparator alone.
type plane[E any] struct {
	pure, coded bool
	tie         func(E, E) int
}

func planeOf[E any](coded bool, tie func(E, E) int) plane[E] {
	var zero E
	_, isCode := any(zero).(codes.Code)
	return plane[E]{pure: isCode && coded && tie == nil, coded: coded, tie: tie}
}

// arrays reports which scratch arrays a merge of r non-empty runs takes:
// whether it needs the element array, and how many code arrays.
func (pl plane[E]) arrays(r int) (elems bool, codeArrays int) {
	passes := bits.Len(uint(r - 1))
	switch {
	case r < 3:
		return false, 0
	case pl.pure:
		return false, 1
	case !pl.coded:
		return true, 0
	}
	return true, min(passes-1, 2) // the last pass writes no codes
}

// scratchBytes is the working memory a merge of n keys in r non-empty
// runs takes — what a budgeted caller charges before merging.
func (pl plane[E]) scratchBytes(n, r int) int64 {
	elems, codeArrays := pl.arrays(r)
	per := int64(codeArrays) * 8
	if elems {
		per += pl.elemBytes()
	}
	return int64(n) * per
}

// elemBytes is what a budgeted queue charges per buffered key.
func (plane[E]) elemBytes() int64 {
	var zero E
	return int64(unsafe.Sizeof(zero))
}

// reserve sizes the scratch for a merge of n keys in r runs. Lengths
// only grow: len(elems) is the high-water mark Clear has to wipe.
func (sc *Scratch[E]) reserve(pl plane[E], n, r int) {
	elems, codeArrays := pl.arrays(r)
	if elems && len(sc.elems) < n {
		sc.elems = grown(sc.elems, n)
	}
	for i := 0; i < codeArrays; i++ {
		if len(sc.codes[i]) < n {
			sc.codes[i] = grown(sc.codes[i], n)
		}
	}
}

// carve returns the [lo, hi) window of a reserved scratch as a scratch
// of its own — one per key-range part of a parallel merge.
func (sc *Scratch[E]) carve(lo, hi int) (part Scratch[E]) {
	if len(sc.elems) >= hi {
		part.elems = sc.elems[lo:hi:hi]
	}
	for i, c := range sc.codes {
		if len(c) >= hi {
			part.codes[i] = c[lo:hi:hi]
		}
	}
	return part
}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lane is one buffer of the kernel: elements, their codes, or both.
type lane[E any] struct {
	e []E
	c []codes.Code
}

func (l lane[E]) sub(lo, hi int) (s lane[E]) {
	if l.e != nil {
		s.e = l.e[lo:hi]
	}
	if l.c != nil {
		s.c = l.c[lo:hi]
	}
	return s
}

// pair merges lanes a and b into dst, a first on ties.
func (pl plane[E]) pair(dst, a, b lane[E]) {
	switch {
	case pl.pure:
		mergeCodes(dst.c, a.c, b.c)
	case pl.coded:
		mergeCoded(dst.c, dst.e, a.c, b.c, a.e, b.e, pl.tie)
	default:
		mergeCmp(dst.e, a.e, b.e, pl.tie)
	}
}

// mergeInto merges the sorted runs into out, which must have exactly
// their total length. codeRuns, when non-nil, holds each run's parallel
// codes and carries the order (tie, when also non-nil, orders equal-code
// elements before the run-index tie-break, and each run must itself be
// tie-ordered); with nil codeRuns the order is tie's alone. outC, when
// non-nil, receives the merged records' codes.
func mergeInto[E any](out []E, outC []codes.Code, elemRuns [][]E, codeRuns [][]codes.Code, tie func(E, E) int, sc *Scratch[E]) {
	r, last := 0, -1
	for i, run := range elemRuns {
		if len(run) > 0 {
			r, last = r+1, i
		}
	}
	switch r {
	case 0:
		return
	case 1:
		copy(out, elemRuns[last])
		if outC != nil {
			copy(outC, codeRuns[last])
		}
		return
	}
	n := len(out)
	pl := planeOf(codeRuns != nil, tie)
	if sc == nil {
		sc = new(Scratch[E])
	}
	sc.reserve(pl, n, r)
	passes := bits.Len(uint(r - 1)) // ceil(log2 r)
	// buf is the lane pass j (1-based) writes. Elements (codes on the
	// pure plane) alternate between out and the scratch so that the last
	// pass writes out; a record's codes alternate between the two code
	// arrays, and the last pass writes them to outC or not at all.
	buf := func(j int) (l lane[E]) {
		final := (passes-j)%2 == 0
		switch {
		case pl.pure && final:
			l.c = any(out).([]codes.Code)
		case pl.pure:
			l.c = sc.codes[0]
		case final:
			l.e = out
		default:
			l.e = sc.elems
		}
		if pl.coded && !pl.pure {
			if l.c = outC; j < passes {
				l.c = sc.codes[(j-1)%2]
			}
		}
		return l
	}
	src := func(i int) (l lane[E]) {
		if !pl.pure {
			l.e = elemRuns[i]
		}
		if pl.coded {
			l.c = codeRuns[i]
		}
		return l
	}

	// Pass 1 pairs up the non-empty runs in place; an odd last run meets
	// an empty partner and is carried over. bounds lists the boundaries
	// of the merged results in the buffer.
	dst := buf(1)
	bounds := append(sc.bounds[:0], 0)
	at, prev := 0, -1
	for i, run := range elemRuns {
		switch {
		case len(run) == 0:
		case prev < 0:
			prev = i
		default:
			hi := at + len(elemRuns[prev]) + len(run)
			pl.pair(dst.sub(at, hi), src(prev), src(i))
			bounds = append(bounds, hi)
			at, prev = hi, -1
		}
	}
	if prev >= 0 {
		pl.pair(dst.sub(at, n), src(prev), lane[E]{})
		bounds = append(bounds, n)
	}
	// Every later pass merges results (2i, 2i+1) and halves the
	// boundary list in place.
	for j, runs := 2, len(bounds)-1; runs > 1; j, runs = j+1, (runs+1)/2 {
		from := dst
		dst = buf(j)
		for i := 0; i < runs; i += 2 {
			lo, mid, hi := bounds[i], bounds[min(i+1, runs)], bounds[min(i+2, runs)]
			pl.pair(dst.sub(lo, hi), from.sub(lo, mid), from.sub(mid, hi))
			bounds[i/2] = lo
		}
		bounds[(runs+1)/2] = n
	}
	sc.bounds = bounds
}

// mergeCodes merges sorted a and b into dst, a first on ties. Which side
// wins a step is a coin flip no branch predictor learns, so a step
// selects with min/max and advances by a computed 0/1 instead of
// branching (measured 1.4x). Each step still waits on the one before it,
// so two independent chains share the loop: the front chain takes the
// smaller head (a's on ties) into dst[i+j], the back chain the larger
// tail (b's on ties) into dst[ie+je-1]. While both runs hold an untaken
// key the two take different keys, so the output is the one-chain
// merge's; once either run is used up, the rest of the other fills the
// middle.
func mergeCodes(dst, a, b []codes.Code) {
	dst = dst[:len(a)+len(b)]
	i, j := 0, 0             // front chain: the next head of each run
	ie, je := len(a), len(b) // back chain: one past the last untaken key
	for i < ie && j < je {
		x, y := a[i], b[j]
		fromB := 0
		if y < x {
			fromB = 1
		}
		dst[i+j] = min(x, y)
		i += 1 - fromB
		j += fromB

		x, y = a[ie-1], b[je-1]
		fromA := 0
		if x > y {
			fromA = 1
		}
		dst[ie+je-1] = max(x, y)
		ie -= fromA
		je -= 1 - fromA
	}
	k := i + j + copy(dst[i+j:], a[i:ie])
	copy(dst[k:], b[j:je])
}

// mergeCoded is mergeCodes with element payloads in tow: b's head goes
// first only when its code is smaller or, on the prefix plane, when the
// codes collide and tie puts it strictly before a's. A nil dstC skips
// the codes (the last pass).
func mergeCoded[E any](dstC []codes.Code, dstE []E, aC, bC []codes.Code, aE, bE []E, tie func(E, E) int) {
	i, j, k := 0, 0, 0
	for i < len(aC) && j < len(bC) {
		if bC[j] < aC[i] || (tie != nil && bC[j] == aC[i] && tie(bE[j], aE[i]) < 0) {
			dstE[k] = bE[j]
			if dstC != nil {
				dstC[k] = bC[j]
			}
			j++
		} else {
			dstE[k] = aE[i]
			if dstC != nil {
				dstC[k] = aC[i]
			}
			i++
		}
		k++
	}
	if dstC != nil {
		copy(dstC[k:], aC[i:])
		copy(dstC[k+len(aC)-i:], bC[j:])
	}
	k += copy(dstE[k:], aE[i:])
	copy(dstE[k:], bE[j:])
}

// mergeCmp merges sorted a and b into dst under cmp alone, a first on
// ties.
func mergeCmp[E any](dst, a, b []E, cmp func(E, E) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(b[j], a[i]) < 0 {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
