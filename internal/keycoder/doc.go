// Package keycoder provides order-preserving encodings between key
// types and uint64 code points. It carries two distinct contracts:
//
// The bijective Coder contract. Classic histogram sort
// (internal/histsort) refines candidate splitters by bisecting the key
// space numerically, and radix partitioning (internal/radix) buckets
// keys by their most significant bits. Both need a total order on a
// fixed-width integer image of the key type. A Coder maps keys to
// uint64 codes such that, for cmp = cmp.Compare,
//
//	cmp(a, b) < 0  ⟹  Encode(a) < Encode(b)
//
// and Decode(Encode(k)) is k bit for bit, for every bit pattern. Code
// order refines cmp.Compare order: only keys cmp.Compare ties yet whose
// bits differ — -0 and +0, and any two NaNs, which encode below -Inf —
// get distinct codes. Equal codes imply identical keys, so a pipeline
// on the bijective plane never needs the comparator again.
//
// The prefix-extractor contract. Variable-length byte-string keys
// admit no uint64 bijection, but they do admit an order-preserving
// projection: Prefix extracts the first eight bytes big-endian, giving
// the weaker guarantee
//
//	cmp(a, b) < 0  ⟹  Code(a) <= Code(b)
//
// — order is preserved but not reflected, and equal codes do NOT imply
// equal keys. A prefix code is a sorting accelerator, not an identity:
// every consumer must re-resolve equal-code runs with the comparator
// (codes.TieBreak after the radix sort, the tie-aware merges, and
// splitter saturation in histogramming). There is no Decode;
// PrefixBytes produces the canonical 8-byte representative of a code
// when a concrete key is needed.
package keycoder
