package codes

import (
	"math/bits"

	"hssort/internal/par"
)

// The scatter kernel: an out-of-place MSD radix sort that moves codes
// between the array and a caller's scratch array, so every pass reads
// and writes sequential streams instead of chasing the in-place kernel's
// dependent swap chain. Two scatter levels cover all but skewed data:
//
//   - Level 1 reads the codes once to find the highest bit on which they
//     differ and starts its 8-bit digit there, not at bit 56 — an
//     encoded key range of 2^60 spends no level on its constant top
//     nibble — then counts and scatters the codes into the scratch.
//   - Level 2 scatters each level-1 bucket back on a digit of up to
//     wideBits bits, as wide as the bucket is long, so sub-buckets
//     hold about one code. The sub-buckets still above the insertion
//     cutoff (a hot value range, as zipfian's) finish with the in-place
//     kernel.
//
// Serial is the one-block case of the parallel kernel: a pool of more
// than one worker splits level 1's passes into contiguous blocks with
// per-block bucket offsets and fans the level-1 buckets over its tasks.
// Counts live on the stack, so the serial kernel allocates nothing.

// wideBits is the widest level-2 digit: 2^11 counters (16 KiB of stack)
// split a bucket of up to a few thousand codes into sub-buckets of about
// one code each. wideMask bounds a digit of any width to the counters,
// so indexing them needs no bounds check.
const (
	wideBits = 11
	wideMask = 1<<wideBits - 1
)

// SortScratch sorts cs in ascending order with tmp, which must hold at
// least len(cs) codes, as scatter scratch; tmp's contents are clobbered
// and the result lands in cs. With a one-worker (or nil) pool it
// allocates nothing.
func SortScratch(cs, tmp []Code, p *par.Pool) {
	scatterSort[struct{}](cs, tmp[:len(cs)], nil, nil, p)
}

// scatterSort is the scatter kernel behind SortScratch and, with pay and
// payTmp non-nil, the parallel tandem plane: each payload rides its code
// into payTmp and back. tmp and payTmp are as long as cs.
func scatterSort[E any](cs, tmp []Code, pay, payTmp []E, p *par.Pool) {
	n := len(cs)
	switch {
	case n <= insertionCutoff:
		if pay == nil {
			insertion(cs)
		} else {
			insertionTandem(cs, pay)
		}
		return
	case p.Workers() > 1 && n >= parCutoff:
		scatterSortPar(cs, tmp, pay, payTmp, p)
		return
	}
	diff := diffBits(cs, cs[0])
	if diff == 0 {
		return
	}
	shift := firstShift(diff)
	var end [256]int
	countDigits(cs, shift, &end)
	toStarts(&end)
	scatterDigits(cs, tmp, pay, payTmp, shift, &end)
	lo := 0
	for _, hi := range end {
		finishBucket(cs, tmp, pay, payTmp, lo, hi, shift)
		lo = hi
	}
}

// scatterSortPar is scatterSort with level 1's diff, count and scatter
// passes split into contiguous blocks, one task each — block i's codes
// land at offsets[i], so the scatter stays stable — and the level-1
// buckets finished one per task.
func scatterSortPar[E any](cs, tmp []Code, pay, payTmp []E, p *par.Pool) {
	blocks := par.Blocks(len(cs), p.Workers())
	nb := len(blocks)
	diffs := make([]Code, nb)
	p.Do(nb, func(i int) {
		diffs[i] = diffBits(cs[blocks[i].Lo:blocks[i].Hi], cs[0])
	})
	var diff Code
	for _, d := range diffs {
		diff |= d
	}
	if diff == 0 {
		return
	}
	shift := firstShift(diff)
	offsets := make([][256]int, nb)
	p.Do(nb, func(i int) {
		countDigits(cs[blocks[i].Lo:blocks[i].Hi], shift, &offsets[i])
	})
	// end[b] walks from bucket b's start through each block's share of it
	// and stops at the bucket's end.
	var end [256]int
	for i := range offsets {
		for b, k := range offsets[i] {
			end[b] += k
		}
	}
	toStarts(&end)
	for i := range offsets {
		counts := offsets[i]
		offsets[i] = end
		for b, k := range counts {
			end[b] += k
		}
	}
	p.Do(nb, func(i int) {
		lo, hi := blocks[i].Lo, blocks[i].Hi
		var paySrc []E
		if pay != nil {
			paySrc = pay[lo:hi]
		}
		scatterDigits(cs[lo:hi], tmp, paySrc, payTmp, shift, &offsets[i])
	})
	p.Do(len(end), func(b int) {
		lo := 0
		if b > 0 {
			lo = end[b-1]
		}
		finishBucket(cs, tmp, pay, payTmp, lo, end[b], shift)
	})
}

// diffBits ORs together the bits on which each code differs from x.
func diffBits(cs []Code, x Code) Code {
	var d Code
	for _, c := range cs {
		d |= c ^ x
	}
	return d
}

// firstShift is the shift of level 1's digit for codes that differ on
// the bits of diff: the digit's top bit is the highest of them.
func firstShift(diff Code) int {
	return max(bits.Len64(uint64(diff))-8, 0)
}

// countDigits adds the count of each byte at shift in cs to counts.
func countDigits(cs []Code, shift int, counts *[256]int) {
	for _, c := range cs {
		counts[uint8(c>>shift)]++
	}
}

// toStarts turns per-byte counts into each byte bucket's start offset.
func toStarts(counts *[256]int) {
	sum := 0
	for b, k := range counts {
		counts[b] = sum
		sum += k
	}
}

// scatterDigits moves each code of src — and its payload from paySrc,
// when that is non-nil — to dst at the next offset of its byte at shift,
// advancing the offset. src is read in order, so the scatter is stable.
func scatterDigits[E any](src, dst []Code, paySrc, payDst []E, shift int, next *[256]int) {
	if paySrc == nil {
		for _, c := range src {
			d := uint8(c >> shift)
			dst[next[d]] = c
			next[d]++
		}
		return
	}
	for i, c := range src {
		d := uint8(c >> shift)
		dst[next[d]] = c
		payDst[next[d]] = paySrc[i]
		next[d]++
	}
}

// finishBucket is level 2: it sorts level 1's bucket [lo, hi), which
// sits in tmp (and payTmp) and agrees on every bit from shift up, into
// cs (and pay). A bucket with no bits left or of at most insertionCutoff
// codes is copied back and finished there; a larger one scatters back
// on the next digit.
func finishBucket[E any](cs, tmp []Code, pay, payTmp []E, lo, hi, shift int) {
	m := hi - lo
	if m == 0 {
		return
	}
	cs, tmp = cs[lo:hi], tmp[lo:hi]
	if pay != nil {
		pay, payTmp = pay[lo:hi], payTmp[lo:hi]
	}
	if shift > 0 && m > insertionCutoff {
		// Only scatterBack holds the 16 KiB of counters, so a shard whose
		// buckets all stay small never grows its goroutine's stack.
		scatterBack(cs, tmp, pay, payTmp, shift)
		return
	}
	copy(cs, tmp)
	if pay == nil {
		insertion(cs)
	} else {
		copy(pay, payTmp)
		insertionTandem(cs, pay)
	}
}

// scatterBack scatters a level-1 bucket from tmp (and payTmp) back into
// cs (and pay) on the digit below shift, as wide as the bucket is long
// up to wideBits, and finishes the sub-buckets that digit leaves above
// the insertion cutoff with the in-place kernel.
func scatterBack[E any](cs, tmp []Code, pay, payTmp []E, shift int) {
	w := min(wideBits, bits.Len(uint(len(cs))), shift)
	shift -= w
	mask := uint(1)<<w - 1
	var counts [1 << wideBits]int
	next := counts[:1<<w]
	for _, c := range tmp {
		counts[uint(c>>shift)&mask&wideMask]++
	}
	sum := 0
	for d, k := range next {
		next[d] = sum
		sum += k
	}
	if pay == nil {
		for _, c := range tmp {
			d := uint(c>>shift) & mask & wideMask
			cs[counts[d]] = c
			counts[d]++
		}
	} else {
		for i, c := range tmp {
			d := uint(c>>shift) & mask & wideMask
			cs[counts[d]] = c
			pay[counts[d]] = payTmp[i]
			counts[d]++
		}
	}
	if shift == 0 {
		return // each sub-bucket holds one code value
	}
	// next[d] is now sub-bucket d's end.
	lo := 0
	for _, hi := range next {
		if hi-lo > 1 {
			if pay == nil {
				msd(cs[lo:hi], max(shift-8, 0))
			} else {
				msdTandem(cs[lo:hi], pay[lo:hi], max(shift-8, 0))
			}
		}
		lo = hi
	}
}
