package codes

import (
	"math/bits"
	"slices"

	"hssort/internal/par"
)

// The scatter kernel: an out-of-place MSD radix sort that moves codes
// between the array and a caller's scratch array, so every pass reads
// and writes sequential streams instead of chasing the in-place kernel's
// dependent swap chain. It never falls back to the in-place kernel:
//
//   - Level 1 reads the codes once to find the highest bit on which they
//     differ and starts its 8-bit digit there, not at bit 56 — an
//     encoded key range of 2^60 spends no level on its constant top
//     nibble — then counts and scatters the codes into the scratch. On
//     a skewed input (the linear digit's largest bucket over an eighth
//     of at least logMinKeys codes) it may take the log-scale digit
//     instead: a code's bit length plus the bits after its leading one,
//     which spreads a zipfian shard over every bucket where the linear
//     digit piles most of it into bucket 0.
//   - Level 2 scatters each level-1 bucket back on a digit of up to
//     wideBits bits, as wide as the bucket is long, so sub-buckets
//     hold about one code. A sub-bucket still above the insertion
//     cutoff (a hot value range) recurses into the kernel on its own
//     range of the scratch, idle once level 2 has moved its codes back,
//     and one insertion pass over the level-1 bucket then finishes
//     every smaller one.
//
// Serial is the one-block case of the parallel kernel: a pool of more
// than one worker splits level 1's passes into contiguous blocks with
// per-block bucket offsets and fans the level-1 buckets over its tasks.
// Counts live on the stack, so the serial kernel allocates nothing.

// wideBits is the widest level-2 digit: 2^12 counters (32 KiB of stack)
// split a bucket of up to a few thousand codes into sub-buckets of about
// one code each. wideMask bounds a digit of any width to the counters,
// so indexing them needs no bounds check.
const (
	wideBits = 12
	wideMask = 1<<wideBits - 1
)

// logMinKeys is the shortest input whose level 1 weighs the log-scale
// digit: below it the extra counting pass costs more than a skewed
// level 1 loses.
const logMinKeys = 1 << 14

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
		insertionOf(cs, pay)
		return
	case p.Workers() > 1 && n >= parCutoff:
		scatterSortPar(cs, tmp, pay, payTmp, p)
		return
	}
	diff := diffBits(cs, cs[0])
	if diff == 0 {
		return
	}
	dg := linearDigit(diff)
	var end [256]int
	countDigits(cs, dg, &end)
	if lg, ok := logDigit(diff, n, &end); ok {
		var alt [256]int
		countDigits(cs, lg, &alt)
		if slices.Max(alt[:]) <= slices.Max(end[:])/2 {
			dg, end = lg, alt
		}
	}
	toStarts(&end)
	scatterDigits(cs, tmp, pay, payTmp, dg, &end)
	lo := 0
	for b, hi := range end {
		finishBucket(cs, tmp, pay, payTmp, lo, hi, dg.agreeFrom(b))
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
	dg := linearDigit(diff)
	offsets := make([][256]int, nb)
	end := countBlocks(cs, blocks, dg, offsets, p)
	if lg, ok := logDigit(diff, len(cs), &end); ok {
		alt := make([][256]int, nb)
		if altEnd := countBlocks(cs, blocks, lg, alt, p); slices.Max(altEnd[:]) <= slices.Max(end[:])/2 {
			dg, offsets, end = lg, alt, altEnd
		}
	}
	// end[b] walks from bucket b's start through each block's share of it
	// and stops at the bucket's end.
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
		scatterDigits(cs[lo:hi], tmp, span(pay, lo, hi), payTmp, dg, &offsets[i])
	})
	p.Do(len(end), func(b int) {
		lo := 0
		if b > 0 {
			lo = end[b-1]
		}
		finishBucket(cs, tmp, pay, payTmp, lo, end[b], dg.agreeFrom(b))
	})
}

// countBlocks counts each block's digits into offsets[i], one task per
// block, and returns the per-digit totals.
func countBlocks(cs []Code, blocks []par.Range, dg digit, offsets [][256]int, p *par.Pool) [256]int {
	p.Do(len(blocks), func(i int) {
		countDigits(cs[blocks[i].Lo:blocks[i].Hi], dg, &offsets[i])
	})
	var total [256]int
	for i := range offsets {
		for b, k := range offsets[i] {
			total[b] += k
		}
	}
	return total
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

// digit is level 1's radix digit, 256 buckets at most and monotone in
// the code. The linear digit is the byte at shift. The log digit of a
// code is the bit length L of x, its bits under low (those below the
// prefix every code shares), followed by the m bits after x's leading
// one: (x >> s) + s<<m with s = max(L-1-m, 0), so each bucket spans a
// value range as wide as its values are large.
type digit struct {
	shift int  // linear: the digit's lowest bit
	low   Code // log: the bits below the shared prefix; 0 for linear
	m     int  // log: the bits kept after the leading one
}

// linearDigit is the byte whose top bit is diff's highest.
func linearDigit(diff Code) digit {
	return digit{shift: firstShift(diff)}
}

// logDigit offers the log digit for n codes that differ on the bits of
// diff and whose linear digit counted lin: only for at least logMinKeys
// codes whose largest linear bucket holds over an eighth of them, and
// wider than one byte. m is the largest for which the hb−m+1 bit
// lengths above m, 2^m buckets each, fit 256 digits.
func logDigit(diff Code, n int, lin *[256]int) (digit, bool) {
	hb := bits.Len64(uint64(diff))
	if n < logMinKeys || hb <= 8 || slices.Max(lin[:]) <= n/8 {
		return digit{}, false
	}
	m := 0
	for (hb-m)<<(m+1) <= 256 {
		m++
	}
	return digit{low: Code(1)<<hb - 1, m: m}, true
}

// of is c's digit.
func (d digit) of(c Code) uint8 {
	if d.low == 0 {
		return uint8(c >> d.shift)
	}
	x := c & d.low
	s := max(bits.Len64(uint64(x))-1-d.m, 0)
	return uint8(x>>s) + uint8(s<<d.m)
}

// agreeFrom is the lowest bit from which every code in bucket b agrees:
// the linear digit's shift, or for the log digit the bits from L-1-m up.
func (d digit) agreeFrom(b int) int {
	if d.low == 0 {
		return d.shift
	}
	return max(b>>d.m-1, 0)
}

// countDigits adds the count of each digit of cs to counts.
func countDigits(cs []Code, dg digit, counts *[256]int) {
	for _, c := range cs {
		counts[dg.of(c)]++
	}
}

// toStarts turns per-digit counts into each bucket's start offset.
func toStarts(counts *[256]int) {
	sum := 0
	for b, k := range counts {
		counts[b] = sum
		sum += k
	}
}

// scatterDigits moves each code of src — and its payload from paySrc,
// when that is non-nil — to dst at the next offset of its digit,
// advancing the offset. src is read in order, so the scatter is stable.
func scatterDigits[E any](src, dst []Code, paySrc, payDst []E, dg digit, next *[256]int) {
	if paySrc == nil {
		for _, c := range src {
			d := dg.of(c)
			dst[next[d]] = c
			next[d]++
		}
		return
	}
	for i, c := range src {
		d := dg.of(c)
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
	pay, payTmp = span(pay, lo, hi), span(payTmp, lo, hi)
	if shift > 0 && m > insertionCutoff {
		// Only scatterBack holds the level-2 counters, so a shard whose
		// buckets all stay small never grows its goroutine's stack.
		scatterBack(cs, tmp, pay, payTmp, shift)
		return
	}
	copy(cs, tmp)
	if pay != nil {
		copy(pay, payTmp)
	}
	insertionOf(cs, pay)
}

// scatterBack scatters a level-1 bucket from tmp (and payTmp) back into
// cs (and pay) on the digit below shift, as wide as the bucket is long
// up to wideBits. A sub-bucket that digit leaves above the insertion
// cutoff recurses into the serial kernel with its own range of tmp as
// scratch; one insertion pass over the bucket then sorts the rest.
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
		if hi-lo > insertionCutoff {
			scatterSort(cs[lo:hi], tmp[lo:hi], span(pay, lo, hi), span(payTmp, lo, hi), nil)
		}
		lo = hi
	}
	insertionOf(cs, pay)
}

// span is pay[lo:hi], or nil when there is no payload.
func span[E any](pay []E, lo, hi int) []E {
	if pay == nil {
		return nil
	}
	return pay[lo:hi]
}

// insertionOf is insertion, or insertionTandem when pay is non-nil.
func insertionOf[E any](cs []Code, pay []E) {
	if pay == nil {
		insertion(cs)
	} else {
		insertionTandem(cs, pay)
	}
}
