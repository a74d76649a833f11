package comm

// SimTransport is the simulated, byte-accounted message-passing backend —
// the substrate behind all of the paper's BSP measurements. Every Send
// charges the accounted wire size to per-rank Counters, an optional
// Interceptor can observe and veto messages for fault injection, and Recv
// matches envelopes against a mailbox that lists every message twice, in
// arrival order and in its sender's FIFO: AnySource follows arrival
// order, like an MPI unexpected-message queue, and a receive that names
// its source never scans or shifts another sender's backlog, which
// during a p-rank all-to-all is ~p/2 messages deep.
//
// SimTransport is the default backend of NewWorld. Use InprocTransport
// when throughput matters more than accounting fidelity.
type SimTransport struct {
	p           int
	boxes       []*mailbox
	counters    []Counters
	interceptor Interceptor
	abort       abortState
	bar         *cyclicBarrier
}

var _ Transport = (*SimTransport)(nil)

// NewSimTransport creates a simulated transport connecting p ranks. It
// panics if p < 1.
func NewSimTransport(p int) *SimTransport {
	if p < 1 {
		panicSize(p)
	}
	t := &SimTransport{
		p:        p,
		boxes:    make([]*mailbox, p),
		counters: make([]Counters, p),
	}
	for i := range t.boxes {
		t.boxes[i] = newMailbox(p)
	}
	t.bar = newCyclicBarrier(p, t.Err)
	return t
}

// SetInterceptor installs a message interceptor for fault injection.
// Call before any rank starts sending.
func (t *SimTransport) SetInterceptor(ic Interceptor) { t.interceptor = ic }

// Size returns the number of ranks.
func (t *SimTransport) Size() int { return t.p }

// Send enqueues the message in dst's mailbox and charges src's counters.
func (t *SimTransport) Send(src, dst int, tag Tag, payload any, bytes int64) error {
	if err := t.abort.get(); err != nil {
		return err
	}
	m := Message{Src: src, Tag: tag, Payload: payload, Bytes: bytes}
	if ic := t.interceptor; ic != nil {
		// The interceptor takes a pointer, which moves its target to the
		// heap: hand it a copy made on this branch only, so a send with
		// no interceptor installed allocates nothing.
		seen := m
		if err := ic(src, dst, &seen); err != nil {
			return err
		}
		m = seen
	}
	t.boxes[dst].put(m)
	cnt := &t.counters[src]
	cnt.MsgsSent++
	cnt.BytesSent += bytes
	return nil
}

// Recv takes the oldest message matching (src, tag) from dst's mailbox,
// blocking until one arrives, and charges dst's counters.
func (t *SimTransport) Recv(dst, src int, tag Tag) (Message, error) {
	mb := t.boxes[dst]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if m, ok := mb.take(src, tag); ok {
			cnt := &t.counters[dst]
			cnt.MsgsRecv++
			cnt.BytesRecv += m.Bytes
			return m, nil
		}
		if err := t.abort.get(); err != nil {
			return Message{}, err
		}
		mb.cond.Wait()
	}
}

// TryRecv takes the oldest message matching (src, tag) from dst's
// mailbox without blocking; ok is false when no match is buffered. A
// successful probe charges dst's counters like Recv.
func (t *SimTransport) TryRecv(dst, src int, tag Tag) (Message, bool, error) {
	mb := t.boxes[dst]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if err := t.abort.get(); err != nil {
		return Message{}, false, err
	}
	m, ok := mb.take(src, tag)
	if ok {
		cnt := &t.counters[dst]
		cnt.MsgsRecv++
		cnt.BytesRecv += m.Bytes
	}
	return m, ok, nil
}

// Barrier blocks until all p ranks have entered.
func (t *SimTransport) Barrier(int) error { return t.bar.await() }

// Abort latches err and unblocks all pending and future operations.
func (t *SimTransport) Abort(err error) {
	t.abort.set(err)
	for _, mb := range t.boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	t.bar.wake()
}

// Err returns the abort error, or nil while the transport is live.
func (t *SimTransport) Err() error { return t.abort.get() }

// Reset returns the transport to its freshly constructed state: queued
// messages are discarded (the queues keep their storage for the next
// run), the abort latch clears, the barrier rearms and counters zero.
// Only call while no ranks are running.
func (t *SimTransport) Reset() {
	for _, mb := range t.boxes {
		mb.reset()
	}
	t.abort.reset()
	t.bar.reset()
	t.ResetCounters()
}

// Counters returns a copy of rank r's traffic counters. Call after Run
// returns (or from rank r itself) to avoid racing the owning goroutine.
func (t *SimTransport) Counters(r int) Counters { return t.counters[r] }

// TotalCounters sums counters across all ranks.
func (t *SimTransport) TotalCounters() Counters {
	var total Counters
	for i := range t.counters {
		total.Add(t.counters[i])
	}
	return total
}

// ResetCounters zeroes all counters. Only call while no ranks are running.
func (t *SimTransport) ResetCounters() {
	for i := range t.counters {
		t.counters[i] = Counters{}
	}
}
