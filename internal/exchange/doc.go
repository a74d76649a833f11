// Package exchange implements the data-movement phase shared by every
// splitter-based sort in this repository (§2.2 step 3): partitioning the
// local sorted input by the final splitters, the personalized all-to-all
// that sends each bucket to its owner, and the post-exchange imbalance
// measurement.
//
// Buckets are decoupled from ranks: the paper's flat sort uses one bucket
// per processor, the two-level node optimization (§6.1) uses one bucket
// per node, and ChaNGa (§6.3) uses many virtual-processor buckets per
// core, possibly placed non-contiguously. An Owner function maps buckets
// to ranks; all runs destined to the same rank travel in one combined
// message (the §6.1 message-combining optimization falls out for free).
//
// Exchange is the bandwidth-dominant phase of the sort (the 2N/p BSP
// term of §5.1) — until runs are short, when its p−1 messages per rank
// make it latency-bound instead. The materializing all-to-all is one
// routing step: group runs by owner, send one message to and receive one
// from every peer, empty ones included. Where p−1 tiny messages per
// rank would cost too much, core's two-level sort (core.Levels) calls
// it over √p-rank groups instead: once over each column, once over each
// row.
//
// Two data planes implement the exchange: the materializing
// all-to-all (Exchange, merged afterwards with merge.Runs) and the
// streaming pipeline (ExchangeStream), which sends each destination's
// payload in ChunkKeys-sized chunks interleaved across destinations and
// merges received chunks incrementally (merge.Streamer's batch drain —
// the same kernel), overlapping the exchange tail
// (§6.2) under a credit window that bounds peak in-flight data.
// ExchangeMerge dispatches between them — materializing only with
// ChunkKeys 0 and no spill budget, so a budgeted rank never holds its
// whole receive and a diverted stream is the one place exchange data
// reaches disk; both produce rank-identical output. Everything is built
// on comm.Endpoint Send/Recv (plus the TryRecv/RecvAny probes of
// comm.StreamEndpoint for the streaming plane), so it runs unchanged
// over the byte-accounted simulated transport or the in-process fast
// path — see internal/comm.Transport.
//
// A streaming exchange is one per-rank stream state kept in Scratch —
// route, send (a credit window fixed at 2 chunks per destination),
// receive (credit, admit, divert) and drain (refill diverted tails,
// merge, grant credits) — and charges nothing to the memory budget
// itself: the merge's run queue is the only place merge input is
// charged.
package exchange
