package comm

import (
	"sync"
	"sync/atomic"
)

// inprocWaiter is one parked receiver: the stream it is waiting for and
// the channel a matching send signals. Boxes usually hold zero or one
// waiter (one goroutine per rank), so a linear scan beats any map.
type inprocWaiter struct {
	src int // AnySource for wildcard waiters
	tag Tag
	ch  chan struct{}
}

// inprocBox is one rank's inbox: one FIFO per sending rank, indexed by
// array — no maps anywhere on the send/receive path.
type inprocBox struct {
	mu      sync.Mutex
	bySrc   [][]Message     // [src] pending messages from that rank, all tags
	waiters []inprocWaiter  // parked receivers, usually 0 or 1
	free    []chan struct{} // recycled park channels (accessed under mu)
}

// InprocTransport is the zero-copy shared-memory fast path: the backend
// for production-style throughput runs where wall-clock speed matters
// and the paper's byte accounting does not.
//
// Payloads move by reference between sender and receiver goroutines with
// no serialization, no byte accounting, and no per-message envelope
// bookkeeping: Counters always read zero and there is no Interceptor
// hook. Both in-memory backends keep one array-indexed FIFO per
// (sender, receiver) pair, so a receive touches only the queue it names;
// two structural differences from SimTransport make this one faster:
//
//   - Targeted wakeups: a blocked Recv parks on its own recycled
//     channel and the send that can satisfy it signals exactly that
//     one receiver. SimTransport broadcasts its inbox condition
//     variable on every send, waking (and re-scanning) waiting
//     receivers up to p-1 times per delivered message.
//   - Lock-free abort probes: the hot paths check the abort latch with
//     an atomic load instead of taking a mutex.
//
// Semantics are otherwise identical — the conformance suite in
// transport_test.go runs unchanged against both backends — except that
// AnySource scans senders in rank order rather than arrival order,
// which MPI wildcard semantics leave unspecified anyway (AnySource is
// O(p) in both; no algorithm in this repository uses it on a hot path).
//
// Memory: the pair queues cost O(p²) slice headers per transport
// (~25 MB at p = 1024), which is the usual space/time trade of
// pairwise channels and irrelevant at the rank counts a single process
// can host.
type InprocTransport struct {
	p        int
	boxes    []inprocBox
	abortErr atomic.Pointer[error]
	bar      *cyclicBarrier
}

var _ Transport = (*InprocTransport)(nil)

// NewInprocTransport creates an in-process transport connecting p ranks.
// It panics if p < 1.
func NewInprocTransport(p int) *InprocTransport {
	if p < 1 {
		panicSize(p)
	}
	t := &InprocTransport{p: p, boxes: make([]inprocBox, p)}
	for i := range t.boxes {
		t.boxes[i].bySrc = make([][]Message, p)
	}
	t.bar = newCyclicBarrier(p, t.Err)
	return t
}

// Size returns the number of ranks.
func (t *InprocTransport) Size() int { return t.p }

// Send appends the payload reference to dst's queue for src and wakes
// the one parked receiver that can consume it, if any.
func (t *InprocTransport) Send(src, dst int, tag Tag, payload any, bytes int64) error {
	if err := t.Err(); err != nil {
		return err
	}
	b := &t.boxes[dst]
	b.mu.Lock()
	b.bySrc[src] = append(b.bySrc[src], Message{Src: src, Tag: tag, Payload: payload, Bytes: bytes})
	var wake chan struct{}
	for i, w := range b.waiters {
		if (w.src == src || w.src == AnySource) && w.tag == tag {
			// Swap-remove: waiter order carries no semantics.
			last := len(b.waiters) - 1
			b.waiters[i] = b.waiters[last]
			b.waiters = b.waiters[:last]
			wake = w.ch
			break
		}
	}
	b.mu.Unlock()
	if wake != nil {
		// Signal outside the lock so the woken receiver never blocks
		// right back on b.mu. Cap 1, one token per registration: never
		// blocks the sender.
		wake <- struct{}{}
	}
	return nil
}

// popTag removes and returns the first message with the given tag from
// q, preserving the order of the rest (pairwise FIFO per tag).
func popTag(q *[]Message, tag Tag) (Message, bool) {
	s := *q
	for i := range s {
		if s[i].Tag == tag {
			m := s[i]
			copy(s[i:], s[i+1:])
			*q = s[:len(s)-1]
			return m, true
		}
	}
	return Message{}, false
}

// Recv pops the next message matching (src, tag) from dst's pair
// queues, blocking until one exists. src may be AnySource, which scans
// senders in rank order.
func (t *InprocTransport) Recv(dst, src int, tag Tag) (Message, error) {
	b := &t.boxes[dst]
	b.mu.Lock()
	for {
		if src != AnySource {
			if m, ok := popTag(&b.bySrc[src], tag); ok {
				b.mu.Unlock()
				return m, nil
			}
		} else {
			for s := range b.bySrc {
				if m, ok := popTag(&b.bySrc[s], tag); ok {
					b.mu.Unlock()
					return m, nil
				}
			}
		}
		if err := t.Err(); err != nil {
			b.mu.Unlock()
			return Message{}, err
		}
		// Park on a recycled channel; the next matching send (or an
		// abort) delivers one token. Registering under the lock closes
		// the lost-wakeup window.
		var ch chan struct{}
		if n := len(b.free); n > 0 {
			ch = b.free[n-1]
			b.free = b.free[:n-1]
		} else {
			ch = make(chan struct{}, 1)
		}
		b.waiters = append(b.waiters, inprocWaiter{src: src, tag: tag, ch: ch})
		b.mu.Unlock()
		<-ch
		b.mu.Lock()
		b.free = append(b.free, ch)
	}
}

// TryRecv pops the next message matching (src, tag) from dst's pair
// queues if one is buffered, without blocking. src may be AnySource,
// which scans senders in rank order.
func (t *InprocTransport) TryRecv(dst, src int, tag Tag) (Message, bool, error) {
	if err := t.Err(); err != nil {
		return Message{}, false, err
	}
	b := &t.boxes[dst]
	b.mu.Lock()
	defer b.mu.Unlock()
	if src != AnySource {
		if m, ok := popTag(&b.bySrc[src], tag); ok {
			return m, true, nil
		}
	} else {
		for s := range b.bySrc {
			if m, ok := popTag(&b.bySrc[s], tag); ok {
				return m, true, nil
			}
		}
	}
	return Message{}, false, nil
}

// Barrier blocks until all p ranks have entered.
func (t *InprocTransport) Barrier(int) error { return t.bar.await() }

// Abort latches err and unblocks all pending and future operations.
func (t *InprocTransport) Abort(err error) {
	if err == nil {
		err = ErrAborted
	}
	t.abortErr.CompareAndSwap(nil, &err) // first abort wins
	for i := range t.boxes {
		b := &t.boxes[i]
		b.mu.Lock()
		for _, w := range b.waiters {
			w.ch <- struct{}{}
		}
		b.waiters = b.waiters[:0]
		b.mu.Unlock()
	}
	t.bar.wake()
}

// Err returns the abort error, or nil while the transport is live.
func (t *InprocTransport) Err() error {
	if p := t.abortErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Reset returns the transport to its freshly constructed state: queued
// messages are discarded, the abort latch clears and the barrier rearms.
// Only call while no ranks are running.
func (t *InprocTransport) Reset() {
	for i := range t.boxes {
		b := &t.boxes[i]
		b.mu.Lock()
		for s := range b.bySrc {
			b.bySrc[s] = nil
		}
		b.waiters = b.waiters[:0]
		b.mu.Unlock()
	}
	t.abortErr.Store(nil)
	t.bar.reset()
}

// Counters returns the zero Counters: this backend does no accounting.
func (t *InprocTransport) Counters(int) Counters { return Counters{} }

// TotalCounters returns the zero Counters.
func (t *InprocTransport) TotalCounters() Counters { return Counters{} }

// ResetCounters is a no-op.
func (t *InprocTransport) ResetCounters() {}
