// Package radix implements a parallel most-significant-digit radix
// partition sort — the bit-bucketing baseline of §4.2. One pass over the
// top Bits bits of the order-preserving key codes builds a global digit
// histogram; digits are then assigned to ranks in contiguous,
// load-balanced blocks, whose boundaries become the splitters of core's
// sort skeleton. The package holds only that strategy. Because a digit
// bucket cannot be split, a single hot digit (heavy skew or duplicates)
// breaks the load balance — the §4.2 weakness TestRadixSkewBreaksBalance
// pins. Non-integer keys work through the keycoder bijections, but the
// partition quality depends on the code distribution, not the
// comparator, unlike HSS.
package radix
