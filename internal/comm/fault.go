package comm

// fault.go implements FaultTransport: a deterministic chaos layer that
// wraps any Transport and perturbs its message flow — seeded drops,
// delays, duplicates, and a one-shot rank crash at a chosen protocol
// point. It is the test substrate for the failure-survival machinery:
// the same seed produces the same fault schedule, so a chaos test that
// fails replays exactly.
//
// The sort protocols assume what TCP gives them: reliable, FIFO,
// exactly-once delivery per (src, dst, tag) stream. A fault layer that
// actually discarded or reordered messages would not model a fault of
// the deployed system — it would model a different (broken) transport,
// and every protocol would rightly hang. So drop/delay/dup model a
// lossy *link* underneath its repair layer, the way TCP rides on lossy
// IP: a dropped message is retransmitted (delivered after a retransmit
// delay), a delayed message waits out its jitter, a duplicate is
// delivered once and the copy suppressed. The observable effect is pure
// added latency on a per-pair FIFO link — protocol outputs stay
// byte-identical to a clean run, which is exactly the determinism
// property the chaos sweep pins.
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

// FaultSpec configures a FaultTransport. Probabilities are per message
// and must satisfy Drop+Delay+Dup ≤ 1; the fate of each message is
// drawn deterministically from Seed and the (src, dst) pair's message
// sequence.
type FaultSpec struct {
	// Seed drives every random decision. The same seed and traffic
	// produce the same fault schedule.
	Seed uint64
	// Drop, Delay, Dup are per-message probabilities of the three link
	// faults. A "dropped" message is delivered after RetransmitDelay
	// (the link's repair layer resends it); a delayed message waits a
	// jitter in (0, MaxDelay]; a duplicated message is delivered once
	// with the copy suppressed.
	Drop, Delay, Dup float64
	// MaxDelay bounds the delay jitter. Default 2ms.
	MaxDelay time.Duration
	// RetransmitDelay is the latency modeling a drop + retransmit.
	// Default 2×MaxDelay.
	RetransmitDelay time.Duration

	// CrashRank is the rank that crashes when CrashWhen or
	// CrashAfterSends triggers (meaningful only when one of them is
	// set).
	CrashRank int
	// CrashWhen triggers the crash on CrashRank's first send matching
	// the predicate — tags name protocol phases, so a crash lands at a
	// reproducible protocol point.
	CrashWhen func(src, dst int, tag Tag) bool
	// CrashAfterSends triggers the crash on CrashRank's nth send (1 ≤
	// n), counting all destinations. Zero disables.
	CrashAfterSends int
	// OnCrash, if set, replaces the default crash action (killing the
	// victim's endpoint): the multi-process harness uses it to SIGKILL
	// the victim process itself.
	OnCrash func(rank int)
}

// withDefaults fills unset spec fields.
func (s FaultSpec) withDefaults() FaultSpec {
	if s.MaxDelay == 0 {
		s.MaxDelay = 2 * time.Millisecond
	}
	if s.RetransmitDelay == 0 {
		s.RetransmitDelay = 2 * s.MaxDelay
	}
	return s
}

// lossy reports whether any link fault is enabled.
func (s *FaultSpec) lossy() bool { return s.Drop > 0 || s.Delay > 0 || s.Dup > 0 }

// crashArmed reports whether a crash trigger is configured.
func (s *FaultSpec) crashArmed() bool { return s.CrashWhen != nil || s.CrashAfterSends > 0 }

// FaultStats counts the faults a FaultTransport has injected.
type FaultStats struct {
	// Dropped, Delayed, Duplicated count link faults (each message
	// still delivered exactly once, late).
	Dropped, Delayed, Duplicated int64
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
	sends    atomic.Int64 // CrashRank's send count (CrashAfterSends)

	dropped, delayed, duplicated, crashes atomic.Int64

	wg sync.WaitGroup
}

var (
	_ Transport  = (*FaultTransport)(nil)
	_ RankHoster = (*FaultTransport)(nil)
	_ io.Closer  = (*FaultTransport)(nil)
)

// NewFaultTransport wraps inner with the fault schedule of spec.
func NewFaultTransport(inner Transport, spec FaultSpec) *FaultTransport {
	return &FaultTransport{
		inner:  inner,
		spec:   spec.withDefaults(),
		links:  make(map[[2]int]*faultLink),
		sendMu: make([]sync.Mutex, inner.Size()),
	}
}

// Inner returns the wrapped transport (tests reach through to Kill /
// Respawn / inspect endpoints).
func (ft *FaultTransport) Inner() Transport { return ft.inner }

// FaultStats returns the faults injected so far.
func (ft *FaultTransport) FaultStats() FaultStats {
	return FaultStats{
		Dropped:    ft.dropped.Load(),
		Delayed:    ft.delayed.Load(),
		Duplicated: ft.duplicated.Load(),
		Crashes:    ft.crashes.Load(),
	}
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
// link when a latency fault is drawn).
func (ft *FaultTransport) Send(src, dst int, tag Tag, payload any, bytes int64) error {
	if ft.spec.crashArmed() && src == ft.spec.CrashRank {
		if err := ft.maybeCrash(src, dst, tag); err != nil {
			return err
		}
	}
	if src == dst || !ft.spec.lossy() {
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
	u := splitmix64Float(&l.rng)
	var wait time.Duration
	s := &ft.spec
	switch {
	case u < s.Drop:
		// The link lost the message; its repair layer retransmits.
		wait = s.RetransmitDelay
		ft.dropped.Add(1)
	case u < s.Drop+s.Delay:
		wait = time.Duration(1 + splitmix64(&l.rng)%uint64(s.MaxDelay))
		ft.delayed.Add(1)
	case u < s.Drop+s.Delay+s.Dup:
		// Delivered twice; the duplicate is suppressed, the survivor
		// pays the duplicate-detection queueing cost.
		wait = s.MaxDelay / 2
		ft.duplicated.Add(1)
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
	trigger := s.CrashWhen != nil && s.CrashWhen(src, dst, tag)
	if s.CrashAfterSends > 0 && ft.sends.Add(1) >= int64(s.CrashAfterSends) {
		trigger = true
	}
	if !trigger {
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
	ft.spec.CrashAfterSends = 0
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
	return fmt.Sprintf("FaultTransport(drop=%g delay=%g dup=%g seed=%d)", ft.spec.Drop, ft.spec.Delay, ft.spec.Dup, ft.spec.Seed)
}
