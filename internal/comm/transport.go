package comm

import "sync/atomic"

// Transport is the pluggable message-delivery backend a World runs over.
// Two implementations ship with the repository, and every rank of either
// receives through the same inbox (mailbox.go):
//
//   - MemTransport: the in-memory backend, payloads moving by reference
//     between rank goroutines. NewSimTransport (the default) counts
//     every message's accounted wire size in per-rank Counters, the
//     paper's BSP measurements; NewInprocTransport skips the accounting
//     and its Counters read zero.
//   - TCPTransport: the multi-process backend — each rank is its own OS
//     process, messages cross real sockets through the wire protocol of
//     docs/WIRE.md, and Counters report measured (not modeled) traffic.
//     NewTCPLoopback provides an in-process world over real localhost
//     sockets.
//
// The contract every implementation must honor (the conformance suite in
// transport_test.go checks it against sim, inproc and tcp):
//
//   - Send is asynchronous and never blocks (unbounded buffering).
//   - Recv blocks until a message matching (src, tag) arrives; src may
//     be AnySource. Messages from one sender on one tag are delivered
//     in send order (pairwise FIFO, the MPI non-overtaking rule).
//     AnySource carries no ordering guarantee across senders (the
//     built-in inbox serves the lowest-ranked sender holding a match).
//   - Abort latches the first error and unblocks every pending and
//     future Send/Recv with it.
//
// Recv is the only method a running rank blocks in, and every blocking
// call of the runtime is built on it: Comm.Barrier is messages on a
// reserved tag, and the collectives and exchanges are Send/Recv
// protocols. A parked rank is therefore always a receive registered in
// an inbox.
//
// Callers pass valid rank indexes: Comm validates user-supplied ranks
// before delegating, so transports may assume 0 <= src, dst < Size()
// (src additionally may be AnySource in Recv).
type Transport interface {
	// Size returns the number of ranks the transport connects.
	Size() int
	// Send delivers payload from rank src to rank dst on stream tag;
	// bytes is the accounted wire size (ignored by non-accounting
	// backends).
	Send(src, dst int, tag Tag, payload any, bytes int64) error
	// Recv blocks until rank dst has a message matching (src, tag) and
	// returns it; src may be AnySource.
	Recv(dst, src int, tag Tag) (Message, error)
	// TryRecv is the posted-receive probe behind streaming protocols: it
	// returns the next message matching (src, tag) if one is already
	// buffered, without blocking. src may be AnySource. ok reports
	// whether a message was delivered.
	TryRecv(dst, src int, tag Tag) (Message, bool, error)
	// Abort unblocks all pending and future operations with err (or
	// ErrAborted if err is nil). The first abort wins.
	Abort(err error)
	// Err returns the abort error, or nil while the transport is live.
	Err() error
	// Reset returns the transport to its freshly constructed state:
	// queued messages are discarded, the abort latch clears and traffic
	// counters zero. Only call while no ranks are running —
	// it is the hook that lets a long-lived engine (comm.Pool) reuse one
	// transport across sorts, including after an abort or cancellation.
	Reset()

	// Counters returns rank r's traffic counters: the byte-accounting
	// hook behind the paper's communication-volume measurements.
	// Non-accounting backends return the zero Counters.
	Counters(r int) Counters
}

// RankHoster is the optional Transport extension of multi-process
// backends: a transport that hosts only a subset of the world's ranks in
// this process. World.Run and Pool drive exactly the hosted ranks —
// under TCPTransport each process hosts one rank, so p cooperating
// processes each run their own slice of the same SPMD program. In-memory
// transports host every rank and do not implement the interface.
type RankHoster interface {
	// LocalRanks returns the ranks hosted in this process, sorted.
	LocalRanks() []int
}

// hostedRanks returns the ranks of t that live in this process: all of
// them unless the transport is a RankHoster.
func hostedRanks(t Transport) []int {
	if h, ok := t.(RankHoster); ok {
		return h.LocalRanks()
	}
	all := make([]int, t.Size())
	for i := range all {
		all[i] = i
	}
	return all
}

// TotalCounters sums t's counters over the ranks it hosts in this
// process: the whole world for an in-memory transport, the local rank
// for a TCPTransport endpoint (whole-world totals over TCP are the sum
// over processes). Read it while no hosted rank is running.
func TotalCounters(t Transport) Counters {
	var total Counters
	for _, r := range hostedRanks(t) {
		total.Add(t.Counters(r))
	}
	return total
}

// abortLatch is the first-abort-wins error latch shared by the built-in
// transports. It is lock-free: the send and receive paths probe it with
// one atomic load.
type abortLatch struct{ err atomic.Pointer[error] }

// set latches err (ErrAborted if nil) unless an abort already happened.
func (a *abortLatch) set(err error) {
	if err == nil {
		err = ErrAborted
	}
	a.err.CompareAndSwap(nil, &err)
}

// get returns the latched abort error, or nil.
func (a *abortLatch) get() error {
	if p := a.err.Load(); p != nil {
		return *p
	}
	return nil
}

// reset clears the latch so the transport can be reused.
func (a *abortLatch) reset() { a.err.Store(nil) }
