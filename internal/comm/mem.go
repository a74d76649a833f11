package comm

// MemTransport is the in-memory backend: every rank is a goroutine of
// this process, payloads move between them by reference with no
// serialization, and each rank receives through its own inbox. Its two
// constructors differ in one bit, accounting:
//
//   - NewSimTransport counts. Every Send charges the accounted wire size
//     to the sender's Counters and every receive to the receiver's: the
//     substrate behind the paper's BSP measurements, and the default
//     backend of NewWorld.
//   - NewInprocTransport does not. Counters read zero: the backend for
//     runs where wall-clock speed matters and the accounting does not.
type MemTransport struct {
	boxes    []*inbox
	counting bool
	// counters holds each rank's traffic. A rank's receive side is
	// written by its own goroutine, its send side by Send for that rank,
	// whose calls never overlap (FaultTransport serializes the sends it
	// makes on a rank's behalf).
	counters []Counters
	abort    abortLatch
}

var _ Transport = (*MemTransport)(nil)

// NewSimTransport creates a byte-accounted in-memory transport connecting
// p ranks. It panics if p < 1.
func NewSimTransport(p int) *MemTransport { return newMemTransport(p, true) }

// NewInprocTransport creates an in-memory transport connecting p ranks
// that does no accounting. It panics if p < 1.
func NewInprocTransport(p int) *MemTransport { return newMemTransport(p, false) }

func newMemTransport(p int, counting bool) *MemTransport {
	if p < 1 {
		panicSize(p)
	}
	t := &MemTransport{boxes: make([]*inbox, p), counting: counting, counters: make([]Counters, p)}
	for i := range t.boxes {
		t.boxes[i] = newInbox(p, t.abort.get)
	}
	return t
}

// Size returns the number of ranks.
func (t *MemTransport) Size() int { return len(t.boxes) }

// Send charges src's counters and enqueues the payload reference in
// dst's inbox. Charging first orders the charge before whatever waits
// for the message — the receiver, and a Counters read after Run — even
// when the send runs on another goroutine than the rank's own.
func (t *MemTransport) Send(src, dst int, tag Tag, payload any, bytes int64) error {
	if err := t.abort.get(); err != nil {
		return err
	}
	if t.counting {
		cnt := &t.counters[src]
		cnt.MsgsSent++
		cnt.BytesSent += bytes
	}
	t.boxes[dst].put(Message{Src: src, Tag: tag, Payload: payload, Bytes: bytes})
	return nil
}

// Recv takes the oldest message matching (src, tag) from dst's inbox,
// blocking until one arrives, and charges dst's counters.
func (t *MemTransport) Recv(dst, src int, tag Tag) (Message, error) {
	m, err := t.boxes[dst].recv(src, tag)
	if err == nil {
		t.chargeRecv(dst, m)
	}
	return m, err
}

// TryRecv takes the oldest message matching (src, tag) from dst's inbox
// without blocking; ok is false when no match is queued. A successful
// probe charges dst's counters like Recv.
func (t *MemTransport) TryRecv(dst, src int, tag Tag) (Message, bool, error) {
	m, ok, err := t.boxes[dst].tryRecv(src, tag)
	if ok {
		t.chargeRecv(dst, m)
	}
	return m, ok, err
}

// chargeRecv accounts one message consumed by rank dst.
func (t *MemTransport) chargeRecv(dst int, m Message) {
	if t.counting {
		cnt := &t.counters[dst]
		cnt.MsgsRecv++
		cnt.BytesRecv += m.Bytes
	}
}

// Abort latches err and unblocks all pending and future operations.
func (t *MemTransport) Abort(err error) {
	t.abort.set(err)
	for _, b := range t.boxes {
		b.wake()
	}
}

// Err returns the abort error, or nil while the transport is live.
func (t *MemTransport) Err() error { return t.abort.get() }

// Reset returns the transport to its freshly constructed state: queued
// messages are discarded (the queues keep their storage for the next
// run), the abort latch clears and counters zero. Only call while no
// ranks are running.
func (t *MemTransport) Reset() {
	for _, b := range t.boxes {
		b.reset()
	}
	t.abort.reset()
	clear(t.counters)
}

// Counters returns a copy of rank r's traffic counters (zero under
// NewInprocTransport). Call after Run returns (or from rank r itself) to
// avoid racing the owning goroutine.
func (t *MemTransport) Counters(r int) Counters { return t.counters[r] }
