// Package par is the intra-rank parallel compute plane: a bounded
// fork-join worker pool the hot kernels (radix local sort, partition
// scans, encode/decode, per-core merges) fan their work over.
//
// A Pool is a budget, not a set of goroutines: Do spawns up to Workers
// goroutines for one fork-join region and joins them all before
// returning, so a rank's compute phases never leave workers behind —
// cancellation between phases finds nothing to drain, and
// goroutine-leak assertions hold by construction. The price is one
// goroutine spawn per worker per region, ~1µs each, which the serial
// cutoffs in every kernel keep negligible.
//
// Each simulated rank owns its own Pool. In a process hosting h ranks
// (all of them for the in-memory transports, one for a TCP worker
// process), Default budgets GOMAXPROCS/h workers per rank so
// concurrently running ranks own disjoint core budgets instead of
// oversubscribing the machine.
//
// Determinism contract: Do distributes task indices dynamically (any
// worker may run any task), so kernels built on it must make each
// task's effect a pure function of the task index and the input —
// never of which worker ran it or in what order. Every kernel in this
// repository follows that rule, which is what the worker-count-sweep
// equivalence tests at the repository root pin.
package par
