// Package core implements Histogram Sort with Sampling (HSS) — the
// paper's primary contribution — as a distributed algorithm over the
// internal/comm runtime, together with a centralized protocol simulator
// that runs the identical splitter-determination protocol at the paper's
// true processor counts (up to hundreds of thousands of buckets).
//
// # The skeleton
//
// The paper's pipeline (§6.1.2) is the same for HSS, both sample sorts,
// classic histogram sort, radix partitioning and over-partitioning; they
// differ only in how the splitters are found (§2.2, §2.3, §4.1, §4.2).
// The package therefore holds one body, in two halves, that every
// splitter-based sort in the repository runs (internal/samplesort,
// histsort, radix and overpartition hold only their strategies):
//
//   - FrontHalf: local sort → all-reduce of the key count N → splitters
//     (the strategy's, or a seed's) → partition into bucket runs. A seed
//     is then histogrammed on the data (round 0: one all-reduce of the
//     bucket loads) and stands if it meets 1+ε; otherwise the strategy
//     runs with that histogram as its first and the runs are re-cut.
//   - BackHalf: exchange.ExchangeMerge (all-to-all + k-way merge) →
//     finishStats, which reduces the rank's own Stats in place.
//
// Sort and SortWith are the two halves back to back; the root engine's
// Plan calls FrontHalf and stops. From 16 ranks the front half runs in
// two levels of √p-rank groups (Levels), §6.1's node-level partitioning
// on counted messages. Options is the one options struct — declared,
// defaulted and validated once, before any rank works or sends — and one
// tag layout from tag 1000 (count · strategy span · round 0 · data
// movement · stats) serves every caller, which is what lets
// PhaseTagRange name a phase for all of them. The byte-string prefix
// plane (Options.PrefixCode) is a branch inside the same body.
//
// # The strategy contract
//
// A Strategy is the only per-algorithm part. It is called on every rank
// with that rank's sorted keys — on the prefix plane, the sorted code
// decoration — the global count and the skeleton's defaulted Options, and
// must return the same Buckets-1 non-decreasing splitters on every rank,
// validated once there (exchange.ValidateSplitters) so that no partition
// re-checks them, plus a SplitterInfo for Stats. Its messages stay inside
// the StrategyTags tags from TagStrategy. Strategies pairs the
// key-space and code-space instantiations of one generic function.
//
// HSS, the strategy defined here (DetermineSplitters), supports the
// three sampling disciplines the paper analyzes:
//
//   - FixedOversampling (§6.1.2): every round gathers an expected f·B-key
//     sample from the union of active splitter intervals, f = 5 fixed
//     as in the paper's production runs.
//   - Theoretical (§3.3): k rounds with the geometric ratio schedule
//     s_j = (2 ln B/ε)^(j/k).
//   - OneRoundScanning (§3.2): a single 2/ε-ratio sample finished by the
//     Axtmann scanning algorithm.
package core
