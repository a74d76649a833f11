package comm

import "sync"

// inbox is one rank's unbounded receive queue, mirroring MPI's
// unexpected-message queue, and the whole receive path of every built-in
// transport: the in-memory backend keeps one per rank, a tcp endpoint one
// for its hosted rank.
//
// Messages queue in one FIFO per sender, indexed by rank — no maps
// anywhere on the send/receive path. A receive naming its source walks
// that sender's queue only, so during a p-rank all-to-all it never
// touches the ~p/2 messages other senders have queued. AnySource scans
// the senders in rank order and takes the lowest-ranked sender's oldest
// match; the Transport contract leaves the order across senders
// unspecified, and no protocol in this repository depends on it.
//
// A receive with no match parks on its own channel, recycled across
// receives, and only a send it can match signals it — or wake, on an
// abort or close. A send therefore wakes at most one receiver, and never
// one waiting for another stream.
type inbox struct {
	mu      sync.Mutex
	bySrc   [][]Message     // [src] queued messages from that rank, all tags, oldest first
	waiters []waiter        // parked receivers, usually 0 or 1 (one goroutine per rank)
	free    []chan struct{} // recycled park channels
	// stopped reports why receives must stop — the owning transport's
	// abort latch, or its close — or nil while they may block.
	stopped func() error
}

// waiter is one parked receive: the stream it waits for and the channel
// the send that matches it signals. A linear scan of the usually 0 or 1
// waiters beats any index.
type waiter struct {
	src int // AnySource for a wildcard receive
	tag Tag
	ch  chan struct{}
}

// newInbox creates the inbox of one rank in a p-rank world.
func newInbox(p int, stopped func() error) *inbox {
	return &inbox{bySrc: make([][]Message, p), stopped: stopped}
}

// put enqueues m behind its sender's earlier messages and signals the
// one parked receiver it matches, if any.
func (b *inbox) put(m Message) {
	b.mu.Lock()
	b.bySrc[m.Src] = append(b.bySrc[m.Src], m)
	var wake chan struct{}
	for i, w := range b.waiters {
		if (w.src == m.Src || w.src == AnySource) && w.tag == m.Tag {
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
		// right back on mu. Cap 1, one token per registration: never
		// blocks the sender.
		wake <- struct{}{}
	}
}

// take removes and returns the oldest message matching (src, tag).
// Callers hold mu.
func (b *inbox) take(src int, tag Tag) (Message, bool) {
	if src != AnySource {
		return b.takeFrom(src, tag)
	}
	for s := range b.bySrc {
		if m, ok := b.takeFrom(s, tag); ok {
			return m, true
		}
	}
	return Message{}, false
}

// takeFrom removes and returns src's oldest message on tag, keeping the
// order of the rest (pairwise FIFO per tag). The queue keeps its
// storage, so a steady-state stream enqueues without allocating.
func (b *inbox) takeFrom(src int, tag Tag) (Message, bool) {
	q := b.bySrc[src]
	for i := range q {
		if q[i].Tag == tag {
			m := q[i]
			copy(q[i:], q[i+1:])
			q[len(q)-1] = Message{} // drop the payload reference
			b.bySrc[src] = q[:len(q)-1]
			return m, true
		}
	}
	return Message{}, false
}

// recv takes the oldest message matching (src, tag), blocking until one
// is queued or stopped reports an error.
func (b *inbox) recv(src int, tag Tag) (Message, error) {
	b.mu.Lock()
	for {
		if m, ok := b.take(src, tag); ok {
			b.mu.Unlock()
			return m, nil
		}
		if err := b.stopped(); err != nil {
			b.mu.Unlock()
			return Message{}, err
		}
		// Registering under the lock closes the lost-wakeup window: a
		// send or wake that follows the checks above finds the waiter.
		var ch chan struct{}
		if n := len(b.free); n > 0 {
			ch = b.free[n-1]
			b.free = b.free[:n-1]
		} else {
			ch = make(chan struct{}, 1)
		}
		b.waiters = append(b.waiters, waiter{src: src, tag: tag, ch: ch})
		b.mu.Unlock()
		<-ch
		b.mu.Lock()
		b.free = append(b.free, ch)
	}
}

// tryRecv takes the oldest message matching (src, tag) if one is queued,
// without blocking.
func (b *inbox) tryRecv(src int, tag Tag) (Message, bool, error) {
	if err := b.stopped(); err != nil {
		return Message{}, false, err
	}
	b.mu.Lock()
	m, ok := b.take(src, tag)
	b.mu.Unlock()
	return m, ok, nil
}

// wake signals every parked receiver so it rechecks stopped. Callers
// latch the abort (or close) first.
func (b *inbox) wake() {
	b.mu.Lock()
	for _, w := range b.waiters {
		w.ch <- struct{}{}
	}
	b.waiters = b.waiters[:0]
	b.mu.Unlock()
}

// reset discards every queued message; the queues keep their storage for
// the next run. Only call while no receiver is parked.
func (b *inbox) reset() {
	b.mu.Lock()
	for s, q := range b.bySrc {
		clear(q) // drop the payload references
		b.bySrc[s] = q[:0]
	}
	b.waiters = b.waiters[:0]
	b.mu.Unlock()
}
