// Package merge provides the multiway merging of sorted runs.
//
// After the all-to-all data exchange, every processor holds up to p sorted
// runs (one from each sender) that must be merged into its final output
// (§2.2 step 3) at the paper's O((N/p) log p) merge cost (§6.1.2). One
// kernel pays it everywhere: a run-seeded bottom-up pairwise merge
// (kernel.go) — the log k compares per key of a tournament tree, but over
// flat arrays walked sequentially, which is what makes it run at memory
// speed from two 512 Ki-key runs (the data-bound regime, Fig 6.1) to a
// thousand eight-key ones (large p, N/p² of a few dozen). There are no
// trees, no second merge form, no threshold and no knob; which keys a
// merge orders by — raw uint64 codes, codes with record payloads and an
// optional comparator tie-break, or a comparator alone — is the only
// thing its callers choose.
//
// Two forms sit on the kernel:
//
//   - Materialized: Runs (and RunsCoded, when the codes are already
//     extracted) merges runs that are all in memory, serially or split at
//     sub-splitters into one key range per core (par.go). KWay and
//     ParMergeByCode are fixed-argument spellings of it.
//     The kernel's working memory is one n-element Scratch (none for
//     k ≤ 2) that the caller may keep across merges.
//   - Incremental: a RunQueue (Streamer, when fed keys rather than
//     (code, element) pairs) admits runs that arrive chunk by chunk —
//     AddRun, Append, CloseRun — and DrainReady emits, batch by batch
//     through the same kernel, every key no future arrival can precede.
//     The safe bound of a batch is the smallest (last buffered key, run
//     index) over the runs that may still grow; see RunQueue. That is
//     what lets exchange.ExchangeStream overlap the merge with the
//     exchange itself. Streamer.Refill feeds a run from a Source (a
//     diverted stream's spill run) once the run has consumed its last
//     chunk; FromSources loops it over any sources. Under a Budget the
//     queue is the only place merge input is charged: each chunk on
//     Append, released as it is consumed, and each batch's scratch while
//     it merges, clipped to fit. NextReady and Next serve single keys.
//
// Every form emits the same sequence — the stable sort of the
// concatenated runs: ties go to the lower run index, after the prefix
// plane's comparator tie-break — so which one ran is invisible in the
// output; the equivalence suites at the repository root pin that.
//
// This is the final, purely local phase of every splitter-based sort in
// the repository: internal/exchange delivers the runs, this package turns
// them into the rank's sorted partition.
package merge
