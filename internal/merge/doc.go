// Package merge provides sequential multiway merging of sorted runs.
//
// After the all-to-all data exchange, every processor holds up to p sorted
// runs (one from each sender) that must be merged into its final output
// (§2.2 step 3) at the paper's O((N/p) log p) merge cost (§6.1.2). Two
// kernels pay it, chosen by the shape of the runs a rank holds:
//
//   - The tournament trees (LoserTree under a comparator, CodeTree on
//     raw uint64 codes) do one tree traversal — log k matches — per
//     output key with O(k) scratch. They serve every merge of long runs
//     and every streaming merge.
//   - The short-run kernel (short.go) serves the materialized code-keyed
//     merges when a rank holds many tiny runs: non-empty runs averaging
//     at most shortRunMaxMean (64) keys, the shape large p produces once
//     N/p² drops to a few dozen. It is a run-seeded bottom-up pairwise
//     merge: the same log k compares per key, but over two flat arrays
//     walked sequentially instead of k leaves hopped between, measured
//     4–5x the tree at k = 256 (BenchmarkShortRunMerge; the constant and
//     its measurement are documented on shortRunMaxMean). The bound
//     keeps its O(n) scratch to 64 entries per run. Its output is
//     element-for-element the tree's on every plane — ties go to the
//     lower run index, after the prefix plane's comparator tie-break —
//     so which kernel ran is invisible.
//
// The selection reads only slice lengths every rank already holds; there
// is no knob. KWayByCode*, ParMergeByCode* and ParMergeCoded* all reach
// both kernels through one body, kwayCodedInto.
//
// This is the final, purely local phase of every splitter-based sort in
// the repository: internal/exchange delivers the runs, merge.KWay turns
// them into the rank's sorted partition. The underlying LoserTree also
// works incrementally — runs can be admitted (AddRun), refilled
// (Append) and sealed (CloseRun) while merging, with NextReady emitting
// only keys no future arrival can precede — which is what lets
// exchange.ExchangeStream overlap the merge with the exchange itself.
package merge
