package comm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// pool builds a Pool over a fresh transport of the given backend,
// released at test end.
func pool(t *testing.T, mk func(p int) Transport, p int) *Pool {
	return NewPool(p, WithTransport(closeLater(t, mk(p))), WithTimeout(10*time.Second))
}

// TestPoolReuse: one Pool serves many runs, each starting from a clean
// protocol state with per-run counters. Each run is a ring shift and a
// barrier: p messages, plus the barrier's p·⌈log₂p⌉.
func TestPoolReuse(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p, runs = 4, 5
		pl := pool(t, mk, p)
		defer pl.Close()
		for run := 0; run < runs; run++ {
			var sum atomic.Int64
			err := pl.Run(context.Background(), func(c *Comm) error {
				next := (c.Rank() + 1) % p
				if err := c.Send(next, 7, c.Rank()+run, 8); err != nil {
					return err
				}
				m, err := c.Recv((c.Rank()-1+p)%p, 7)
				if err != nil {
					return err
				}
				sum.Add(int64(m.Payload.(int)))
				return c.Barrier()
			})
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			want := int64(p*(p-1)/2 + p*run)
			if sum.Load() != want {
				t.Fatalf("run %d: sum = %d, want %d", run, sum.Load(), want)
			}
			if mt, ok := pl.Transport().(*MemTransport); ok && mt.counting {
				const want = p + p*2
				if total := TotalCounters(pl.Transport()); total.MsgsSent != want || total.MsgsRecv != want {
					t.Fatalf("run %d: counters %+v, want %d messages each way (counters must reset per run)", run, total, want)
				}
			}
		}
	})
}

// TestPoolRecoversAfterPanic: a rank panic aborts the run (peers unblock
// with ErrAborted) and the next run on the same Pool succeeds.
func TestPoolRecoversAfterPanic(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p = 3
		pl := pool(t, mk, p)
		defer pl.Close()
		err := pl.Run(context.Background(), func(c *Comm) error {
			if c.Rank() == 1 {
				panic("boom")
			}
			_, err := c.Recv(1, 9) // never sent: unblocked by the abort
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "rank 1 panicked") {
			t.Fatalf("aborted run error = %v, want the rank-1 panic", err)
		}
		if err := pl.Run(context.Background(), func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatalf("run after panic: %v", err)
		}
	})
}

// TestPoolRankErrorAbortsWorld: a failed rank fails the world. One rank
// returns an error before its first Send; the ranks parked in Recv on
// it must come back with ErrAborted naming that error (its text is what
// survives a wire abort) well inside the watchdog, under Pool.Run and
// World.Run alike, and the Pool must serve the next run.
func TestPoolRankErrorAbortsWorld(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p = 3
		errBoom := errors.New("rank 1 gives up")
		fn := func(c *Comm) error {
			if c.Rank() == 1 {
				return errBoom
			}
			_, err := c.Recv(1, 9) // never sent: unblocked by the abort
			if !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), errBoom.Error()) {
				return fmt.Errorf("rank %d woke with %v, want ErrAborted naming the rank-1 error", c.Rank(), err)
			}
			return nil
		}
		pl := pool(t, mk, p)
		defer pl.Close()
		runs := map[string]func() error{
			"pool":  func() error { return pl.Run(context.Background(), fn) },
			"world": func() error { return world(t, mk, p).Run(fn) },
		}
		for name, run := range runs {
			start := time.Now()
			err := run()
			if took := time.Since(start); took > time.Second {
				t.Errorf("%s: peers of the failed rank were parked for %v", name, took)
			}
			if !errors.Is(err, errBoom) || strings.Contains(err.Error(), "woke with") {
				t.Errorf("%s: run error = %v, want just the rank-1 error", name, err)
			}
		}
		if err := pl.Run(context.Background(), func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatalf("run after a failed rank: %v", err)
		}
	})
}

// TestPoolContextCancel: cancelling the context mid-run unblocks every
// rank with an error satisfying errors.Is(err, context.Canceled), and
// the Pool remains usable.
func TestPoolContextCancel(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p = 4
		pl := pool(t, mk, p)
		defer pl.Close()
		ctx, cancel := context.WithCancel(context.Background())
		rankErrs := make([]error, p)
		err := pl.Run(ctx, func(c *Comm) error {
			if c.Rank() == 0 {
				time.Sleep(5 * time.Millisecond) // let peers park in Recv
				cancel()
			}
			_, err := c.Recv(AnySource, 11) // nothing is ever sent
			rankErrs[c.Rank()] = err
			return err
		})
		if err == nil {
			t.Fatal("cancelled run returned nil")
		}
		for r, re := range rankErrs {
			if !errors.Is(re, context.Canceled) {
				t.Fatalf("rank %d error = %v, want context.Canceled", r, re)
			}
			if !errors.Is(re, ErrAborted) {
				t.Fatalf("rank %d error = %v, want ErrAborted too", r, re)
			}
		}
		if err := pl.Run(context.Background(), func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	})
}

// TestCancelSynchronous: cancellation does not depend on when the
// context.AfterFunc goroutine behind Pool.Run gets scheduled. Once
// cancel() has returned, the very next communication call of the rank
// that cancelled — whichever entry point it is, blocking or not — fails
// with context.Canceled and aborts the world, so a peer parked on a
// message that now never comes unblocks with the same error. Before the
// entry probe, ranks with little work left could finish and the run
// return nil after cancel().
func TestCancelSynchronous(t *testing.T) {
	ops := []struct {
		name string
		call func(c *Comm) error
	}{
		{"Send", func(c *Comm) error { return c.Send(1, 11, 0, 8) }},
		{"Recv", func(c *Comm) error { _, err := c.Recv(1, 11); return err }},
		{"TryRecv", func(c *Comm) error { _, _, err := c.TryRecv(1, 11); return err }},
		{"RecvAny", func(c *Comm) error { _, err := c.RecvAny(11); return err }},
		{"Barrier", func(c *Comm) error { return c.Barrier() }},
	}
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		pl := pool(t, mk, 2)
		defer pl.Close()
		for _, op := range ops {
			ctx, cancel := context.WithCancel(context.Background())
			rankErrs := make([]error, 2)
			err := pl.Run(ctx, func(c *Comm) error {
				if c.Rank() == 0 {
					cancel()
					rankErrs[0] = op.call(c)
					return rankErrs[0]
				}
				_, rankErrs[1] = c.Recv(0, 12) // nothing is ever sent on this tag
				return rankErrs[1]
			})
			if err == nil {
				t.Fatalf("%s: cancelled run returned nil", op.name)
			}
			for r, re := range rankErrs {
				if !errors.Is(re, context.Canceled) || !errors.Is(re, ErrAborted) {
					t.Fatalf("%s: rank %d error = %v, want context.Canceled wrapped in ErrAborted", op.name, r, re)
				}
			}
			if err := pl.Run(context.Background(), func(c *Comm) error { return c.Barrier() }); err != nil {
				t.Fatalf("%s: run after cancel: %v", op.name, err)
			}
		}
	})
}

// TestPoolPreCancelled: an already-cancelled context fails fast without
// dispatching any rank work.
func TestPoolPreCancelled(t *testing.T) {
	pl := NewPool(2)
	defer pl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	err := pl.Run(ctx, func(c *Comm) error { ran.Store(true); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("rank function ran despite pre-cancelled context")
	}
}

// TestPoolDeadline: a context deadline behaves like cancellation, with
// errors.Is(err, context.DeadlineExceeded) on blocked ranks.
func TestPoolDeadline(t *testing.T) {
	pl := NewPool(2)
	defer pl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := pl.Run(ctx, func(c *Comm) error {
		_, err := c.Recv(AnySource, 3)
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPoolClose: Close joins the workers (no goroutine leak) and
// subsequent runs fail with ErrPoolClosed.
func TestPoolClose(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := NewPool(8)
	if err := pl.Run(context.Background(), func(c *Comm) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	pl.Close()
	pl.Close() // idempotent
	if err := pl.Run(context.Background(), func(c *Comm) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("run after close = %v, want ErrPoolClosed", err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count returns to (at most)
// the given baseline — the world-join assertion used instead of goleak.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTransportReset is the Reset leg of the conformance suite: after
// queued traffic and an abort, Reset restores a usable transport with
// empty queues, a clean latch and zeroed counters.
func TestTransportReset(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p = 3
		tr := closeLater(t, mk(p))
		// Leave stale traffic queued and latch an abort.
		if err := tr.Send(0, 1, 5, "stale", 16); err != nil {
			t.Fatal(err)
		}
		tr.Abort(fmt.Errorf("synthetic"))
		if tr.Err() == nil {
			t.Fatal("abort did not latch")
		}
		tr.Reset()
		if err := tr.Err(); err != nil {
			t.Fatalf("Err after Reset = %v", err)
		}
		if _, ok, err := tr.TryRecv(1, 0, 5); err != nil || ok {
			t.Fatalf("stale message survived Reset (ok=%v, err=%v)", ok, err)
		}
		if got := TotalCounters(tr); got != (Counters{}) {
			t.Fatalf("counters survived Reset: %+v", got)
		}
		// The barrier must work again.
		w := NewWorld(p, WithTransport(tr), WithTimeout(5*time.Second))
		if err := w.Run(func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatalf("barrier after Reset: %v", err)
		}
	})
}
