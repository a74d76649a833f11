// Package comm is the distributed message-passing runtime that stands in
// for MPI/Charm++ in this reproduction.
//
// A World hosts p ranks over a pluggable Transport. Run launches one
// goroutine per hosted rank executing the same SPMD function, mirroring
// how the paper's algorithm runs one process per core. Ranks share no
// mutable state; all interaction flows through Send/Recv.
//
// Two transports ship with the repository (see Transport), and every
// rank of both receives through one inbox type (mailbox.go): per-sender
// queues, a parked receiver woken only by the send it matches, and
// wakeups on abort and close. Every blocking call of the runtime is a
// receive from that inbox: Comm.Barrier is the dissemination barrier
// built from Send/Recv on a reserved tag, and the collectives and
// exchanges are Send/Recv protocols, so a parked rank is always a
// waiter registered in its inbox.
//
//   - MemTransport: the in-memory backend in two modes. NewSimTransport
//     (the default) counts bytes as if every payload were serialized, so
//     communication volume and message counts — the quantities in the
//     paper's BSP analysis (§5.1) — are measured, not estimated.
//     NewInprocTransport is the same zero-copy transport without the
//     accounting.
//   - TCPTransport: the multi-process backend. Each rank is its own OS
//     process; messages cross real sockets through the length-prefixed
//     binary protocol of wire.go (spec: docs/WIRE.md), and counters
//     report measured wire traffic. A process's transport hosts only
//     its own rank (RankHoster), so World and Pool drive just that rank
//     while peer processes run the rest of the same SPMD program;
//     NewTCPLoopback builds an in-process world over real localhost
//     sockets for tests and single-machine runs.
//
// Semantics common to all backends (pinned by the conformance suite in
// transport_test.go):
//
//   - Send is asynchronous and never blocks (inboxes and outbound
//     queues are unbounded), so no protocol can deadlock on buffer
//     exhaustion — matching MPI's buffered-send model that the paper's
//     collectives assume.
//   - Recv blocks until a message matching (src, tag) arrives. Matching
//     messages from one sender with one tag are delivered in send order
//     (pairwise FIFO, the MPI non-overtaking rule).
//   - The sender must not touch a payload after sending. The in-memory
//     backends pass payloads by reference; the wire backend serializes,
//     so the receiver always owns what it gets.
//
// A panic in any rank aborts the whole World — across processes, for
// the wire backend — unblocking every Recv with ErrAborted; otherwise a
// bug in one rank would deadlock the rest.
package comm
