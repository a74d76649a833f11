// Package spill is the out-of-core plane: it writes sorted runs to
// compressed, checksummed run files on disk and streams them back as
// just another chunk source of the incremental k-way merges, so a sort
// whose exchange exceeds Config.MemoryBudget completes with a bounded
// engine-managed working set instead of failing or thrashing.
//
// The package has three moving parts:
//
//   - Manager: one per rank. It owns the rank's spill directory
//     (created under Config.SpillDir, or a private temp directory),
//     meters resident bytes against the budget (Acquire/Release/Room —
//     it implements merge.Budget, which the merge's batch drain charges
//     its scratch to), answers the admission question (WouldExceed) the
//     budget-aware paths key their spill decisions on, and aggregates
//     the per-sort counters behind
//     Stats.SpilledBytes / SpillFileBytes / SpillReads /
//     PeakResidentBytes.
//
//   - Writer / Run / RunReader: the run-file codec. A Writer splits a
//     sorted key stream into frames — delta-varint coded on the pure
//     code plane, raw fixed-size records otherwise, then
//     flate-compressed when that wins — each carrying a CRC-32C of its
//     stored payload, terminated by an explicit final marker so
//     truncation is always detectable (docs/SPILL.md specifies the
//     format). A RunReader feeds the frames back one at a time through
//     merge.Source, so the merge holds one frame per run, not the runs.
//
//   - LocalSort: the local-sort kernel shared by the sort pipelines.
//     It never spills — the shard is the caller's array, already
//     resident, and is sorted in place. The budget only picks the
//     kernel: the radix scatter kernel on a consumed input shard lent
//     as scratch (LocalSortScratch's spare, which costs the budget
//     nothing) or while the shard plus its own scratch
//     (codes.ScratchBytes) fits the budget, the scratch-free
//     codes.SortByCodeInPlace above that (slices.SortFunc on the
//     comparator plane either way) — output identical.
//
// Failure handling follows the repository's typed-error taxonomy: every
// disk failure and every corrupt frame surfaces as a *spill.Error
// naming the operation and path (re-exported as hssort.SpillError), and
// run files are removed as they are consumed, on abort, and wholesale
// by Manager.Reset/Close — a crashed rank's leftovers are wiped when
// its respawn reconstructs the deterministic per-rank directory.
package spill
