// Package histsort implements classic Histogram Sort (Kale & Krishnan
// 1993; Solomonik & Kale 2010) — the "Old" baseline of Fig 6.2.
//
// Unlike HSS, classic histogram sort never samples: the central processor
// refines candidate splitter keys by bisecting the *key space* (§2.3).
// Each round it broadcasts synthesized probe keys (interval midpoints in
// an order-preserving uint64 code space), ranks them with a global
// histogram reduction, and narrows each splitter's code interval until
// the probe's rank lands in the target window. The number of rounds is
// bounded by log of the key range — the weakness on skewed or clustered
// key distributions that HSS removes (§2.3, §6.3).
//
// Key-space bisection needs arithmetic on keys, so this algorithm is only
// available for key types with an order-preserving integer code
// (internal/keycoder).
//
// The package holds only that refinement loop, as a core.Strategy;
// everything around it is core's sort skeleton. It is experiment code:
// cmd/experiments (-exp sec4.2, fig6.2) is its only caller outside its
// tests.
package histsort
