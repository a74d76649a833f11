// Package codes is the comparator-free code-space compute plane. Every
// hot loop of the sort pipelines — local sort, partition cuts, histogram
// rank scans, k-way merges — can run on raw uint64 comparisons instead of
// Go comparator-closure calls whenever the key type admits an
// order-preserving uint64 bijection (internal/keycoder) or, for
// payload-carrying records, an order-preserving code extractor.
//
// The package defines the Code point type and the branch-predictable
// kernels over code slices: an out-of-place MSD radix sort on caller
// scratch (SortScratch: two scatter levels, a log-scale first digit for
// skewed shards, and recursion on the idle scratch for hot sub-buckets,
// so it never swaps in place) and a scratch-free in-place one (Sort) for
// callers with no scratch to give, each with a tandem variant that drags
// record payloads along (the decorate-sort-undecorate plane for KV
// data), histogram ranks and partition cuts (one forward pass over
// sorted probes, each search starting from the previous answer and
// shaped by the expected gap: a merge walk, 8-key block skips or a
// gallop), and the comparator tie-break pass for the prefix plane.
//
// # The Code invariant
//
// Code is a distinct named type rather than a bare uint64 on purpose:
// only this package and the keycoder bijections ever produce []Code, and
// they produce it exclusively in natural unsigned order-correspondence
// with the comparator of the keys it encodes. A generic function that
// discovers its []K is actually a []Code may therefore switch to direct
// `<` comparisons without consulting its comparator — the localized
// type-sniffing fast paths in EncodeSlice/DecodeSlice/SortByCode and in
// internal/histogram rely on exactly this. User-supplied key types can
// never be []Code (the package is internal), so the sniff cannot
// misfire on a caller's custom comparator.
//
// # The prefix plane
//
// Bijective and record extractors satisfy the strong invariant
// cmp(a, b) == 0 ⇔ code(a) == code(b), so code order fully determines
// element order. A prefix extractor (keycoder.Prefix over []byte keys)
// satisfies only cmp(a, b) < 0 ⟹ code(a) <= code(b): equal codes may
// hide unequal keys. On that plane the radix kernels still do the heavy
// lifting, but every equal-code span must afterwards be re-sorted with
// the comparator — TieBreak/TieBreakPar — and every k-way merge must
// consult the comparator on code collisions (internal/merge's tie-aware
// trees). Partition cuts need no repair: Cuts places boundaries between
// codes, so an equal-code (hence comparator-contiguous) group is never
// split across buckets.
package codes
