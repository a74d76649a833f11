package codes

// The in-place local-sort kernels: a byte-wise MSD radix sort
// (american-flag permutation) over code arrays, hybridized with insertion
// sort below a cutoff. The scatter kernel (scatter.go) is the fast
// local sort; this one needs no scratch and serves where a second
// shard-sized array is not allowed and there is no consumed input to
// borrow — spill.LocalSort over its budget for decorated (KV) and
// narrower keys, Sort called without scratch. The tandem variant drags
// an arbitrary payload array through the same permutation, which is how
// payload-carrying records (hssort.KV) ride the code plane: decorate
// with codes, radix-sort codes and records together, and the records
// never see a comparator.
//
// No kernel is stable; neither is slices.SortFunc (pdqsort), so the
// pipelines' ordering guarantees are unchanged: equal keys have equal
// codes, and every downstream tie-break (bucket cuts, merge order) is a
// function of the code alone.

// insertionCutoff is the segment length below which MSD recursion hands
// off to insertion sort. 48 keys ≈ one to two cache lines of codes —
// small enough that branchy insertion beats another counting pass.
const insertionCutoff = 48

// topShift is the bit offset of the most significant radix byte.
const topShift = 56

// Sort sorts a code array in place in ascending order.
func Sort(cs []Code) {
	msd(cs, topShift)
}

// msd sorts cs by the byte at the given shift, then recurses into each
// byte bucket. The shift need not be a multiple of 8: the byte below
// the one at shift s starts at max(s-8, 0).
func msd(cs []Code, shift int) {
	if len(cs) <= insertionCutoff {
		insertion(cs)
		return
	}
	var end [256]int
	shift = flagPass[struct{}](cs, nil, shift, &end)
	if shift == 0 {
		return
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			msd(cs[lo:hi], max(shift-8, 0))
		}
		lo = hi
	}
}

// flagPass is one in-place American-flag level, shared by every kernel
// in this package: it permutes cs — and pay, when non-nil, in lockstep —
// so the codes are grouped by the byte at shift, fills end with the
// exclusive end offset of each byte bucket, and returns the shift it
// permuted on. Levels on which every code shares the same byte — common
// when the encoded key range is narrow — are skipped without permuting,
// so the returned shift can be lower than the one passed in. A return of
// 0 means cs is fully sorted: callers recurse into the buckets of end
// only on a positive shift. cs must be non-empty, and its codes must
// agree on every bit above the byte at shift.
func flagPass[E any](cs []Code, pay []E, shift int, end *[256]int) int {
	var counts [256]int
	for {
		for _, c := range cs {
			counts[uint8(c>>shift)]++
		}
		if counts[uint8(cs[0]>>shift)] < len(cs) {
			break
		}
		// Degenerate level: one bucket holds everything.
		if shift == 0 {
			return 0
		}
		counts[uint8(cs[0]>>shift)] = 0
		shift = max(shift-8, 0)
	}
	var next [256]int
	sum := 0
	for b := range next {
		next[b] = sum
		sum += counts[b]
		end[b] = sum
	}
	// Each swap moves one code into its final byte bucket, so the loop
	// does at most n swaps overall.
	for b := 0; b < 256; b++ {
		for next[b] < end[b] {
			i := next[b]
			d := uint8(cs[i] >> shift)
			if d == uint8(b) {
				next[b]++
			} else {
				j := next[d]
				cs[i], cs[j] = cs[j], cs[i]
				if pay != nil {
					pay[i], pay[j] = pay[j], pay[i]
				}
				next[d]++
			}
		}
	}
	return shift
}

// insertion is the small-segment base case.
func insertion(cs []Code) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i - 1
		for j >= 0 && cs[j] > c {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = c
	}
}

// SortByCode sorts elems ascending by code(e) and returns the parallel
// sorted code array — the decorate-sort-undecorate entry point of the
// compute plane. The extractor must be order-preserving for the
// caller's comparator: cmp(a, b) < 0 ⇔ code(a) < code(b) and
// cmp(a, b) == 0 ⇔ code(a) == code(b). A prefix extractor satisfies
// only the weaker cmp(a, b) < 0 ⟹ code(a) <= code(b); the result is
// then sorted up to equal-code spans and the caller must follow with
// TieBreak/TieBreakPar to restore the full comparator order.
//
// On the pure plane (elems is itself a code array) no decoration
// happens: the slice is radix-sorted in place and returned as its own
// code array.
func SortByCode[E any](elems []E, code func(E) uint64) []Code {
	if cs, ok := any(elems).([]Code); ok {
		Sort(cs)
		return cs
	}
	cs := make([]Code, len(elems))
	for i, e := range elems {
		cs[i] = Code(code(e))
	}
	msdTandem(cs, elems, topShift)
	return cs
}

// msdTandem is msd with a payload array permuted in lockstep.
func msdTandem[E any](cs []Code, pay []E, shift int) {
	if len(cs) <= insertionCutoff {
		insertionTandem(cs, pay)
		return
	}
	var end [256]int
	shift = flagPass(cs, pay, shift, &end)
	if shift == 0 {
		return
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			msdTandem(cs[lo:hi], pay[lo:hi], max(shift-8, 0))
		}
		lo = hi
	}
}

// insertionTandem is insertion with the payload moved in lockstep.
func insertionTandem[E any](cs []Code, pay []E) {
	for i := 1; i < len(cs); i++ {
		c, p := cs[i], pay[i]
		j := i - 1
		for j >= 0 && cs[j] > c {
			cs[j+1], pay[j+1] = cs[j], pay[j]
			j--
		}
		cs[j+1], pay[j+1] = c, p
	}
}
