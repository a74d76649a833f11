package comm

// Transport conformance suite: every test in this file runs against all
// built-in backends — the simulated and shared-memory in-memory runtimes
// and the TCP wire backend (as an in-process loopback mesh, so every
// byte still crosses the codec, framing and socket path) — pinning down
// the contract documented on the Transport interface: pairwise FIFO, tag
// matching, AnySource, the message barrier, abort-on-panic. A new backend
// only has to pass this file to be a drop-in replacement.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// transports enumerates the built-in backends under test. Transports
// built here are registered with closeLater by the test helpers, so
// socket-backed ones release their goroutines at test end.
var transports = []struct {
	name string
	mk   func(p int) Transport
}{
	{"sim", func(p int) Transport { return NewSimTransport(p) }},
	{"inproc", func(p int) Transport { return NewInprocTransport(p) }},
	{"tcp", func(p int) Transport {
		tr, err := NewTCPLoopback(p)
		if err != nil {
			panic(fmt.Sprintf("tcp loopback bootstrap: %v", err))
		}
		return tr
	}},
}

// forEachTransport runs fn once per backend as a subtest.
func forEachTransport(t *testing.T, fn func(t *testing.T, mk func(p int) Transport)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { fn(t, tr.mk) })
	}
}

// closeLater releases a transport's resources at test end (no-op for
// the in-memory backends, socket/goroutine teardown for tcp).
func closeLater(t *testing.T, tr Transport) Transport {
	t.Helper()
	if c, ok := tr.(io.Closer); ok {
		t.Cleanup(func() { c.Close() })
	}
	return tr
}

// world builds a World over a fresh transport of the given backend,
// released at test end.
func world(t *testing.T, mk func(p int) Transport, p int) *World {
	return NewWorld(p, WithTransport(closeLater(t, mk(p))), WithTimeout(10*time.Second))
}

// TestConformanceFIFO: messages from one sender on one tag arrive in
// send order, across several concurrent senders.
func TestConformanceFIFO(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p, n = 5, 300
		w := world(t, mk, p)
		err := w.Run(func(c *Comm) error {
			const tag Tag = 4
			for i := 0; i < n; i++ {
				if err := SendValue(c, 0, tag, c.Rank()*n+i); err != nil {
					return err
				}
			}
			if c.Rank() != 0 {
				return nil
			}
			next := make([]int, p)
			for i := 0; i < p*n; i++ {
				m, err := c.Recv(AnySource, tag)
				if err != nil {
					return err
				}
				v := m.Payload.(int)
				if want := m.Src*n + next[m.Src]; v != want {
					return fmt.Errorf("from %d got %d, want %d (FIFO violated)", m.Src, v, want)
				}
				next[m.Src]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceTagMatching: a receiver asking for one tag never
// consumes or reorders traffic on another.
func TestConformanceTagMatching(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		w := world(t, mk, 2)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				if err := SendValue(c, 1, 2, "second"); err != nil {
					return err
				}
				return SendValue(c, 1, 1, "first")
			}
			a, err := RecvValue[string](c, 0, 1)
			if err != nil {
				return err
			}
			b, err := RecvValue[string](c, 0, 2)
			if err != nil {
				return err
			}
			if a != "first" || b != "second" {
				return fmt.Errorf("tag matching broken: got %q, %q", a, b)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceAnySource: a wildcard receiver sees every sender
// exactly once with the right payload.
func TestConformanceAnySource(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p = 8
		w := world(t, mk, p)
		err := w.Run(func(c *Comm) error {
			const tag Tag = 3
			if c.Rank() != 0 {
				return SendValue(c, 0, tag, c.Rank()*10)
			}
			seen := map[int]bool{}
			for i := 0; i < p-1; i++ {
				m, err := c.Recv(AnySource, tag)
				if err != nil {
					return err
				}
				if seen[m.Src] {
					return fmt.Errorf("duplicate message from %d", m.Src)
				}
				seen[m.Src] = true
				if m.Payload.(int) != m.Src*10 {
					return fmt.Errorf("wrong payload from %d: %v", m.Src, m.Payload)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceMixedAnySourceAndDirect: wildcard and directed receives
// on the same tag drain disjoint messages (no loss, no duplication).
func TestConformanceMixedAnySourceAndDirect(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p, n = 4, 50
		w := world(t, mk, p)
		var got atomic.Int64
		err := w.Run(func(c *Comm) error {
			const tag Tag = 6
			for i := 0; i < n; i++ {
				if err := SendValue(c, 0, tag, 1); err != nil {
					return err
				}
			}
			if c.Rank() != 0 {
				return nil
			}
			// Drain rank 1 directly, everything else via wildcard.
			for i := 0; i < n; i++ {
				if _, err := RecvValue[int](c, 1, tag); err != nil {
					return err
				}
				got.Add(1)
			}
			for i := 0; i < (p-1)*n; i++ {
				if _, err := RecvValue[int](c, AnySource, tag); err != nil {
					return err
				}
				got.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Load() != p*n {
			t.Fatalf("delivered %d messages, want %d", got.Load(), p*n)
		}
	})
}

// TestConformanceTryRecv: the posted-receive probe never blocks, never
// invents messages, respects tag matching, and drains in pairwise FIFO
// order interchangeably with blocking Recv.
func TestConformanceTryRecv(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		w := world(t, mk, 2)
		err := w.Run(func(c *Comm) error {
			const tag Tag = 5
			if c.Rank() == 1 {
				// Handshake so the probe below observes a settled mailbox.
				if _, err := c.Recv(0, tag+1); err != nil {
					return err
				}
				for i := 0; i < 4; i++ {
					if err := SendValue(c, 0, tag, i); err != nil {
						return err
					}
				}
				return SendValue(c, 0, tag+1, -1)
			}
			// Nothing sent yet: the probe must report no message.
			if _, ok, err := c.TryRecv(1, tag); err != nil || ok {
				return fmt.Errorf("probe of empty mailbox: ok=%v err=%v", ok, err)
			}
			// A probe for the wrong tag must not consume other traffic.
			if err := SendValue(c, 1, tag+1, 0); err != nil {
				return err
			}
			if _, err := c.Recv(1, tag+1); err != nil { // all 4 sent after this
				return err
			}
			if _, ok, err := c.TryRecv(1, tag+2); err != nil || ok {
				return fmt.Errorf("probe of absent tag: ok=%v err=%v", ok, err)
			}
			// Drain alternating probe/blocking receives: FIFO must hold.
			for want := 0; want < 4; want++ {
				var got int
				if want%2 == 0 {
					for {
						m, ok, err := c.TryRecv(1, tag)
						if err != nil {
							return err
						}
						if ok {
							got = m.Payload.(int)
							break
						}
					}
				} else {
					m, err := c.Recv(1, tag)
					if err != nil {
						return err
					}
					got = m.Payload.(int)
				}
				if got != want {
					return fmt.Errorf("mixed TryRecv/Recv drained %d, want %d", got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceTryRecvAfterAbort: the probe surfaces the abort error
// instead of reporting an empty mailbox.
func TestConformanceTryRecvAfterAbort(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		tr := closeLater(t, mk(2))
		tr.Abort(nil)
		if _, ok, err := tr.TryRecv(0, 1, 1); err == nil || ok {
			t.Fatalf("TryRecv after abort: ok=%v err=%v, want error", ok, err)
		}
	})
}

// TestConformanceSelfSend: a rank can message itself.
func TestConformanceSelfSend(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		w := world(t, mk, 1)
		err := w.Run(func(c *Comm) error {
			if err := SendValue(c, 0, 9, 5); err != nil {
				return err
			}
			v, err := RecvValue[int](c, 0, 9)
			if err != nil || v != 5 {
				return fmt.Errorf("self-send got %d, %v", v, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceAbortOnPanic: a panic in one rank unblocks every other
// rank's Recv instead of deadlocking, and no phantom message is
// delivered.
func TestConformanceAbortOnPanic(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p = 4
		w := world(t, mk, p)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				panic("rank 0 exploded")
			}
			if _, err := c.Recv(0, 1); err == nil {
				return errors.New("recv returned a phantom message after abort")
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected error from panicked world")
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Errorf("error %q does not mention the panic", err)
		}
		if strings.Contains(err.Error(), "phantom") {
			t.Errorf("abort delivered a phantom message: %v", err)
		}
	})
}

// TestConformanceAbortUnblocksBarrier: ranks parked in the barrier are
// released when the world aborts.
func TestConformanceAbortUnblocksBarrier(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		w := world(t, mk, 2)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				panic("boom")
			}
			return c.Barrier() // rank 0 never arrives
		})
		if err == nil {
			t.Fatal("expected abort to surface through Barrier")
		}
	})
}

// TestConformanceBarrier: no rank leaves the barrier before every rank
// has entered it, across 50 back-to-back barriers on the one barrier
// tag. Each rank is late by a random skew before each barrier, so a
// fast rank's next-barrier messages overtake a slow rank's current one.
func TestConformanceBarrier(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p, rounds = 6, 50
		w := world(t, mk, p)
		var entered atomic.Int64
		err := w.Run(func(c *Comm) error {
			rng := rand.New(rand.NewPCG(1, uint64(c.Rank())))
			for r := 0; r < rounds; r++ {
				time.Sleep(time.Duration(rng.IntN(300)) * time.Microsecond)
				entered.Add(1)
				if err := c.Barrier(); err != nil {
					return err
				}
				if n := entered.Load(); n < int64((r+1)*p) {
					return fmt.Errorf("round %d: left barrier after %d arrivals, want >= %d", r, n, (r+1)*p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceBarrierIsolation: barrier messages and other streams
// never match each other. Rank 0's messages on another tag sit queued
// at rank 1 through the barrier, whose first receive there is from rank
// 0 too; rank 3 is parked in RecvAny on a third tag while a barrier
// message reaches its inbox. Afterwards every rank's inbox holds no
// barrier message and rank 1's queued stream is intact.
func TestConformanceBarrierIsolation(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p, n = 4, 10
		const queued, wake Tag = 21, 22
		w := world(t, mk, p)
		err := w.Run(func(c *Comm) error {
			switch c.Rank() {
			case 0:
				for i := 0; i < n; i++ {
					if err := SendValue(c, 1, queued, i); err != nil {
						return err
					}
				}
				// Ranks 1 and 2 enter the barrier meanwhile, and rank 2's
				// first barrier message lands in parked rank 3's inbox.
				time.Sleep(20 * time.Millisecond)
				if err := SendValue(c, 3, wake, "wake"); err != nil {
					return err
				}
			case 3:
				m, err := c.RecvAny(wake)
				if err != nil {
					return err
				}
				if m.Src != 0 || m.Payload != "wake" {
					return fmt.Errorf("RecvAny(%d) took %+v, want rank 0's wake-up", wake, m)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if _, ok, err := c.TryRecv(AnySource, tagBarrier); err != nil || ok {
				return fmt.Errorf("rank %d: barrier message left queued (ok=%v, err=%v)", c.Rank(), ok, err)
			}
			if c.Rank() == 1 {
				for i := 0; i < n; i++ {
					if v, err := RecvValue[int](c, 0, queued); err != nil || v != i {
						return fmt.Errorf("queued message %d after the barrier: %d, %v", i, v, err)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceBarrierAcrossReset: a barrier aborted by a panic leaves
// barrier messages queued or in flight; the Pool's Reset must discard
// them, so the next run's barrier still holds every rank until the last
// one enters.
func TestConformanceBarrierAcrossReset(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p = 4
		pl := pool(t, mk, p)
		defer pl.Close()
		err := pl.Run(context.Background(), func(c *Comm) error {
			if c.Rank() == 0 {
				time.Sleep(20 * time.Millisecond) // the peers' barrier messages go out
				panic("boom")
			}
			return c.Barrier()
		})
		if err == nil || !strings.Contains(err.Error(), "rank 0 panicked") {
			t.Fatalf("aborted barrier: %v, want the rank-0 panic", err)
		}
		var entered atomic.Int64
		err = pl.Run(context.Background(), func(c *Comm) error {
			if c.Rank() == p-1 {
				// Ranks 0 and 1 hold stale messages from this rank: if
				// they survived Reset, those ranks would leave now.
				time.Sleep(20 * time.Millisecond)
			}
			entered.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if n := entered.Load(); n < p {
				return fmt.Errorf("rank %d left the barrier after %d arrivals: a message of the aborted run crossed into this one", c.Rank(), n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceTimeout: the World watchdog aborts a deadlocked run on
// every backend.
func TestConformanceTimeout(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		w := NewWorld(2, WithTransport(closeLater(t, mk(2))), WithTimeout(50*time.Millisecond))
		err := w.Run(func(c *Comm) error {
			_, err := c.Recv((c.Rank()+1)%2, 1) // nobody sends
			return err
		})
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
	})
}

// TestCountersPerBackend pins the byte-accounting contract: sim counts
// every message and byte; inproc is explicitly unaccounted and reads
// zero.
func TestCountersPerBackend(t *testing.T) {
	run := func(tr Transport) *World {
		w := NewWorld(2, WithTransport(tr), WithTimeout(5*time.Second))
		if err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return SendSlice(c, 1, 1, []int64{1, 2, 3, 4})
			}
			_, err := RecvSlice[int64](c, 0, 1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	sim := run(NewSimTransport(2))
	if got := sim.Counters(0); got.MsgsSent != 1 || got.BytesSent != 32 {
		t.Errorf("sim sender counters = %+v, want 1 msg / 32 bytes", got)
	}
	inproc := run(NewInprocTransport(2))
	if got := inproc.TotalCounters(); got != (Counters{}) {
		t.Errorf("inproc counters = %+v, want all zero", got)
	}
}

// TestWorldSizeMismatchPanics: NewWorld rejects a transport whose size
// disagrees with the world size.
func TestWorldSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	NewWorld(3, WithTransport(NewInprocTransport(2)))
}
