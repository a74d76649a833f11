// Package histogram implements the splitter-determination machinery shared
// by HSS and the baseline sorts:
//
//   - LocalRanks: the per-processor histogram step — the global histogram
//     is the sum-reduction of local ranks over all processors (§2.3 step 3).
//     Probes may arrive in any order; a sorted list is located in one
//     forward pass, each search starting from the previous probe's
//     answer, and an unsorted one by a binary search per probe.
//   - Tracker: the central processor's bookkeeping of splitter bounds
//     L_j(i), U_j(i), splitter intervals, and finalization against the
//     target windows T_i (§3.3 step 3).
//   - Scan: the Axtmann et al. scanning algorithm that picks splitters
//     from one histogrammed sample (§3.2).
//
// In the layer diagram (see the repository README) this package is pure
// computation: it owns no communication. internal/core drives a
// histogramming round by sampling probes (internal/sampling), reducing
// LocalRanks over the world with internal/collective, and feeding the
// global histogram to the Tracker until every splitter interval meets its
// (1+ε) target window.
package histogram
