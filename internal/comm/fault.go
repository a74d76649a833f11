package comm

// fault.go implements FaultTransport: a deterministic chaos layer that
// wraps any Transport and perturbs its message flow — seeded delays and
// a one-shot rank crash at a chosen protocol point. It is the test
// substrate for the failure-survival machinery: the same seed produces
// the same fault schedule, so a chaos test that fails replays exactly.
//
// The sort protocols assume what TCP gives them: reliable, FIFO,
// exactly-once delivery per (src, dst, tag) stream. A fault layer that
// actually discarded or reordered messages would not model a fault of
// the deployed system — it would model a different (broken) transport,
// and every protocol would rightly hang. So the link fault is latency
// on a per-pair FIFO link: a delayed message waits out its jitter, and
// protocol outputs stay byte-identical to a clean run, which is exactly
// the determinism property the chaos sweep pins.
//
// Crashes are the real faults: once the crash condition fires, the
// victim rank's endpoint dies for real (TCPTransport.Kill /
// TCPLoopback.Kill — peers see a raw EOF), in-flight link traffic from
// the victim is discarded, and subsequent sends by the victim fail with
// the *PeerCrashError. OnCrash lets a process self-destruct instead
// (kill -9 in the multi-process harness).

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// defaultMaxDelay is FaultSpec.MaxDelay's default jitter bound.
const defaultMaxDelay = 2 * time.Millisecond

// FaultSpec configures a FaultTransport. The fate of each message is
// drawn deterministically from Seed and the (src, dst) pair's message
// sequence.
type FaultSpec struct {
	// Seed drives every random decision. The same seed and traffic
	// produce the same fault schedule.
	Seed uint64
	// Delay is the per-message probability of the link fault: the
	// message waits a jitter in (0, MaxDelay] on its pair's FIFO link.
	Delay float64
	// MaxDelay bounds the delay jitter. Default 2ms.
	MaxDelay time.Duration

	// CrashRank is the rank that crashes when CrashWhen triggers.
	CrashRank int
	// CrashWhen triggers the crash on CrashRank's first send matching
	// the predicate — tags name protocol phases, so a crash lands at a
	// reproducible protocol point.
	CrashWhen func(src, dst int, tag Tag) bool
	// OnCrash, if set, replaces the default crash action (killing the
	// victim's endpoint): the multi-process harness uses it to SIGKILL
	// the victim process itself.
	OnCrash func(rank int)
}

// FaultStats counts the faults a FaultTransport has injected.
type FaultStats struct {
	// Delayed counts delayed messages (each still delivered exactly
	// once, late).
	Delayed int64
	// Crashes is 1 after the crash trigger has fired.
	Crashes int64
}

// FaultTransport wraps a Transport with deterministic fault injection.
// Construct with NewFaultTransport; Close closes the inner transport
// after the link workers drain.
type FaultTransport struct {
	inner Transport
	spec  FaultSpec

	mu     sync.Mutex
	links  map[[2]int]*faultLink
	closed bool
	// sendMu serializes each sender's deliveries to the inner
	// transport: link workers send on a rank's behalf, concurrently with
	// one another and with the rank's own self-sends, and an inner
	// transport may assume one rank's sends never overlap.
	sendMu []sync.Mutex
	// epoch invalidates in-flight link deliveries across Reset: a
	// message popped before a Reset must not land in the next run.
	epoch atomic.Uint64

	crashed  atomic.Bool
	crashErr atomic.Pointer[PeerCrashError]

	delayed, crashes atomic.Int64

	wg sync.WaitGroup
}

var (
	_ Transport  = (*FaultTransport)(nil)
	_ RankHoster = (*FaultTransport)(nil)
	_ io.Closer  = (*FaultTransport)(nil)
)

// NewFaultTransport wraps inner with the fault schedule of spec.
func NewFaultTransport(inner Transport, spec FaultSpec) *FaultTransport {
	if spec.MaxDelay == 0 {
		spec.MaxDelay = defaultMaxDelay
	}
	return &FaultTransport{
		inner:  inner,
		spec:   spec,
		links:  make(map[[2]int]*faultLink),
		sendMu: make([]sync.Mutex, inner.Size()),
	}
}

// Inner returns the wrapped transport (tests reach through to Kill /
// Respawn / inspect endpoints).
func (ft *FaultTransport) Inner() Transport { return ft.inner }

// FaultStats returns the faults injected so far.
func (ft *FaultTransport) FaultStats() FaultStats {
	return FaultStats{Delayed: ft.delayed.Load(), Crashes: ft.crashes.Load()}
}

// faultLink is the per-(src,dst) FIFO delivery worker: messages queue
// with their fault-assigned latency and a goroutine delivers them in
// order, so faults add delay without ever reordering a pair's stream.
type faultLink struct {
	ft       *FaultTransport
	src, dst int
	rng      uint64 // deterministic fate source, advanced under mu

	mu     sync.Mutex
	cond   *sync.Cond
	q      []faultMsg
	closed bool
}

// faultMsg is one queued delivery.
type faultMsg struct {
	tag     Tag
	payload any
	bytes   int64
	wait    time.Duration
	epoch   uint64
}

// link returns (creating on demand) the FIFO link for (src, dst).
func (ft *FaultTransport) link(src, dst int) *faultLink {
	key := [2]int{src, dst}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	l := ft.links[key]
	if l == nil {
		l = &faultLink{ft: ft, src: src, dst: dst}
		l.cond = sync.NewCond(&l.mu)
		// Decorrelate pair streams: each link owns an independent
		// deterministic sequence derived from the seed and the pair.
		l.rng = ft.spec.Seed ^ (uint64(src)+1)*0x9e3779b97f4a7c15 ^ (uint64(dst)+1)*0xc2b2ae3d27d4eb4f
		ft.links[key] = l
		if !ft.closed {
			ft.wg.Add(1)
			go l.run()
		}
	}
	return l
}

// Send applies the crash trigger and the link fault schedule, then
// forwards to the inner transport (directly, or through the pair's FIFO
// link when delays are armed).
func (ft *FaultTransport) Send(src, dst int, tag Tag, payload any, bytes int64) error {
	if ft.spec.CrashWhen != nil && src == ft.spec.CrashRank {
		if err := ft.maybeCrash(src, dst, tag); err != nil {
			return err
		}
	}
	if src == dst || ft.spec.Delay <= 0 {
		return ft.deliver(src, dst, tag, payload, bytes)
	}
	if err := ft.inner.Err(); err != nil {
		return err
	}
	l := ft.link(src, dst)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrTransportClosed
	}
	var wait time.Duration
	if splitmix64Float(&l.rng) < ft.spec.Delay {
		wait = time.Duration(1 + splitmix64(&l.rng)%uint64(ft.spec.MaxDelay))
		ft.delayed.Add(1)
	}
	l.q = append(l.q, faultMsg{tag: tag, payload: payload, bytes: bytes, wait: wait, epoch: ft.epoch.Load()})
	l.cond.Signal()
	return nil
}

// maybeCrash fires the one-shot crash when the trigger matches,
// returning the crash error for this and every later send by the
// victim.
func (ft *FaultTransport) maybeCrash(src, dst int, tag Tag) error {
	if ft.crashed.Load() {
		return ft.crashError(src)
	}
	s := &ft.spec
	if !s.CrashWhen(src, dst, tag) {
		return nil
	}
	if !ft.crashed.CompareAndSwap(false, true) {
		return ft.crashError(src)
	}
	err := &PeerCrashError{Rank: src, Err: errors.New("injected crash (fault spec)")}
	ft.crashErr.Store(err)
	ft.crashes.Add(1)
	if s.OnCrash != nil {
		s.OnCrash(src)
		return err
	}
	switch in := ft.inner.(type) {
	case *TCPLoopback:
		in.Kill(src)
	case *TCPTransport:
		in.Kill()
	default:
		// In-memory transports have no socket to sever; the abort latch
		// is the closest analogue of a visible crash.
		ft.inner.Abort(err)
	}
	return err
}

// ClearCrash disarms the crash trigger and forgets the injected crash —
// for use between runs after the victim rank has been respawned, so the
// next run's traffic flows again (link faults stay active). Without it
// a phase-triggered crash would re-fire every run.
func (ft *FaultTransport) ClearCrash() {
	ft.spec.CrashWhen = nil
	ft.crashErr.Store(nil)
	ft.crashed.Store(false)
}

// crashError returns the latched crash error, or an equivalent fresh one
// when a concurrent trigger won the CAS but has not stored it yet.
func (ft *FaultTransport) crashError(rank int) error {
	if e := ft.crashErr.Load(); e != nil {
		return e
	}
	return &PeerCrashError{Rank: rank, Err: errors.New("injected crash (fault spec)")}
}

// run delivers one link's queue in FIFO order, sleeping out each
// message's fault latency.
func (l *faultLink) run() {
	defer l.ft.wg.Done()
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.q) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		m := l.q[0]
		l.q = l.q[1:]
		l.mu.Unlock()
		if m.wait > 0 {
			time.Sleep(m.wait)
		}
		if m.epoch != l.ft.epoch.Load() {
			continue // run ended (Reset) while this message was in flight
		}
		if l.ft.crashed.Load() && l.src == l.ft.spec.CrashRank {
			continue // the victim's in-flight traffic died with it
		}
		// Delivery errors surface through the inner transport's abort
		// latch at the blocked receiver; the link cannot return them.
		l.ft.deliver(l.src, l.dst, m.tag, m.payload, m.bytes)
	}
}

// deliver hands one message of src to the inner transport, under src's
// send lock.
func (ft *FaultTransport) deliver(src, dst int, tag Tag, payload any, bytes int64) error {
	ft.sendMu[src].Lock()
	defer ft.sendMu[src].Unlock()
	return ft.inner.Send(src, dst, tag, payload, bytes)
}

// Size delegates to the inner transport.
func (ft *FaultTransport) Size() int { return ft.inner.Size() }

// Recv delegates to the inner transport.
func (ft *FaultTransport) Recv(dst, src int, tag Tag) (Message, error) {
	return ft.inner.Recv(dst, src, tag)
}

// TryRecv delegates to the inner transport.
func (ft *FaultTransport) TryRecv(dst, src int, tag Tag) (Message, bool, error) {
	return ft.inner.TryRecv(dst, src, tag)
}

// Abort delegates to the inner transport.
func (ft *FaultTransport) Abort(err error) { ft.inner.Abort(err) }

// Err delegates to the inner transport.
func (ft *FaultTransport) Err() error { return ft.inner.Err() }

// Reset discards in-flight link traffic of the finished (possibly
// aborted) run and advances the inner transport's generation. The crash
// stays: a crashed rank needs a rejoin (transport-level), not a Reset.
func (ft *FaultTransport) Reset() {
	ft.epoch.Add(1)
	ft.mu.Lock()
	for _, l := range ft.links {
		l.mu.Lock()
		l.q = nil
		l.mu.Unlock()
	}
	ft.mu.Unlock()
	ft.inner.Reset()
}

// Counters delegates to the inner transport (faults add latency, not
// traffic, so measured counters stay truthful).
func (ft *FaultTransport) Counters(r int) Counters { return ft.inner.Counters(r) }

// LocalRanks reports the ranks hosted by the inner transport.
func (ft *FaultTransport) LocalRanks() []int { return hostedRanks(ft.inner) }

// Close drains the link workers and closes the inner transport.
func (ft *FaultTransport) Close() error {
	ft.mu.Lock()
	ft.closed = true
	for _, l := range ft.links {
		l.mu.Lock()
		l.closed = true
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	ft.mu.Unlock()
	ft.wg.Wait()
	if c, ok := ft.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// String identifies the wrapper in logs and test failures.
func (ft *FaultTransport) String() string {
	return fmt.Sprintf("FaultTransport(delay=%g seed=%d)", ft.spec.Delay, ft.spec.Seed)
}
