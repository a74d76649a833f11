// Package nodesort implements the paper's shared-memory/node-level
// optimization (§6.1): data partitioning across physical *nodes* rather
// than cores, with all messages between a pair of nodes combined into
// one.
//
// With c cores per node and n = p/c nodes, the optimization (a) shrinks
// the histogramming problem from p-1 splitters to n-1 (the paper's
// example: 250 MB → 12 MB of sample on BlueGene/L geometry) — that half
// is core's front half run over n buckets — and (b) reduces the
// all-to-all from p(p-1) messages to n(n-1), the data movement this
// package adds. After the node-level exchange, each node redistributes
// its bucket among its own cores — the paper uses sample sort with regular sampling there; with
// the node's data assembled in one address space this degenerates to
// exact quantile splitting, which is what we do.
//
// Intra-node traffic models shared memory: runs move by reference, so
// the byte counters see only envelope-sized messages within a node while
// node-to-node messages carry full key payloads — mirroring where real
// network traffic flows. That makes it a model for the paper's
// comparison, not a production path: it is experiment code, run beside
// flat HSS by cmd/experiments -exp fig6.1, and nothing the library, the
// CLI or the daemon links imports it.
package nodesort
