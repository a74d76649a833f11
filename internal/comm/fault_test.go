package comm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fault_test.go: the failure-survival machinery — deterministic fault
// injection, typed crash errors, heartbeat liveness and
// kill/respawn/rejoin. Companion to the chaos sweeps in the root
// package's robustness tests, which drive whole sorts through the same
// layers.

// TestFaultLinkFaultsDeliverExactlyOnce: a delay is latency on a FIFO
// link, so every message still arrives exactly once, in per-pair FIFO
// order — only later. Two identical runs inject the identical fault
// schedule (same seed, same traffic).
func TestFaultLinkFaultsDeliverExactlyOnce(t *testing.T) {
	const p, msgs = 4, 25
	run := func() FaultStats {
		ft := NewFaultTransport(NewSimTransport(p), FaultSpec{
			Seed: 42, Delay: 0.5, MaxDelay: 200 * time.Microsecond,
		})
		defer ft.Close()
		w := NewWorld(p, WithTransport(ft), WithTimeout(20*time.Second))
		err := w.Run(func(c *Comm) error {
			next := (c.Rank() + 1) % p
			for i := 0; i < msgs; i++ {
				if err := SendValue(c, next, 3, int64(c.Rank()*1000+i)); err != nil {
					return err
				}
			}
			prev := (c.Rank() + p - 1) % p
			for i := 0; i < msgs; i++ {
				got, err := RecvValue[int64](c, prev, 3)
				if err != nil {
					return err
				}
				if want := int64(prev*1000 + i); got != want {
					return fmt.Errorf("rank %d message %d: got %d, want %d (fault layer broke FIFO/exactly-once)", c.Rank(), i, got, want)
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return ft.FaultStats()
	}
	first := run()
	if first.Delayed == 0 {
		t.Fatal("fault layer delayed nothing at 50% probability")
	}
	if second := run(); second != first {
		t.Errorf("fault schedule not deterministic: first run %+v, second %+v", first, second)
	}
}

// TestFaultCrashEveryRankSeesSameTypedError: an injected crash at a
// protocol point kills the victim's endpoint for real, and every
// surviving rank's run fails with a *PeerCrashError naming the same
// rank — whether the survivor saw the EOF itself or learned of the
// crash from the abort broadcast.
func TestFaultCrashEveryRankSeesSameTypedError(t *testing.T) {
	const p, victim = 3, 1
	inner, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFaultTransport(inner, FaultSpec{
		CrashRank: victim,
		CrashWhen: func(src, dst int, tag Tag) bool { return tag == 7 },
	})
	defer ft.Close()
	w := NewWorld(p, WithTransport(ft), WithTimeout(20*time.Second))
	rankErrs := make([]error, p)
	w.Run(func(c *Comm) error {
		err := SendValue(c, (c.Rank()+1)%p, 7, int64(c.Rank()))
		if err == nil {
			_, err = RecvValue[int64](c, (c.Rank()+p-1)%p, 7)
		}
		if err == nil {
			// A survivor whose ring legs dodged the victim still has to
			// observe the crash at the barrier.
			err = c.Barrier()
		}
		rankErrs[c.Rank()] = err
		return err
	})
	for r, err := range rankErrs {
		if r == victim {
			continue // the victim's own error mode is ErrTransportClosed/crash
		}
		var crash *PeerCrashError
		if !errors.As(err, &crash) {
			t.Fatalf("rank %d error %v is not a PeerCrashError", r, err)
		}
		if crash.Rank != victim {
			t.Errorf("rank %d blames rank %d, want %d", r, crash.Rank, victim)
		}
		if !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d crash error does not satisfy ErrAborted", r)
		}
	}
	if st := ft.FaultStats(); st.Crashes != 1 {
		t.Errorf("FaultStats.Crashes = %d, want 1", st.Crashes)
	}
}

// TestFaultLinkFaultsDelayBarrier: barrier messages cross the fault
// layer like any other, so delays reach them, and 20 barriers
// still hold every rank until the last one enters.
func TestFaultLinkFaultsDelayBarrier(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p, rounds = 4, 20
		ft := NewFaultTransport(mk(p), FaultSpec{
			Seed: 7, Delay: 0.5, MaxDelay: 200 * time.Microsecond,
		})
		defer ft.Close()
		w := NewWorld(p, WithTransport(ft), WithTimeout(20*time.Second))
		var entered atomic.Int64
		err := w.Run(func(c *Comm) error {
			for r := 0; r < rounds; r++ {
				entered.Add(1)
				if err := c.Barrier(); err != nil {
					return err
				}
				if n := entered.Load(); n < int64((r+1)*p) {
					return fmt.Errorf("barrier %d: rank %d left after %d arrivals", r, c.Rank(), n)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := ft.FaultStats(); st.Delayed == 0 {
			t.Fatalf("no delay reached %d barriers' messages: %+v", rounds, st)
		}
	})
}

// TestFaultCrashMidBarrier: a crash trigger on the barrier tag fires
// inside a barrier — the victim dies on its second-round send, after
// its first-round message went out — and every survivor, whether parked
// in that barrier or already in the next, fails with a *PeerCrashError
// naming the victim.
func TestFaultCrashMidBarrier(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func(p int) Transport) {
		const p, victim = 4, 1
		ft := NewFaultTransport(mk(p), FaultSpec{
			CrashRank: victim,
			CrashWhen: func(src, dst int, tag Tag) bool { return tag == tagBarrier && dst == (src+2)%p },
		})
		defer ft.Close()
		w := NewWorld(p, WithTransport(ft), WithTimeout(20*time.Second))
		rankErrs := make([]error, p)
		w.Run(func(c *Comm) error {
			var err error
			for i := 0; i < 3 && err == nil; i++ {
				err = c.Barrier()
			}
			rankErrs[c.Rank()] = err
			return err
		})
		for r, err := range rankErrs {
			if r == victim {
				continue
			}
			var crash *PeerCrashError
			if !errors.As(err, &crash) || crash.Rank != victim {
				t.Errorf("survivor %d error %v is not a PeerCrashError for rank %d", r, err, victim)
			}
		}
		if st := ft.FaultStats(); st.Crashes != 1 {
			t.Errorf("FaultStats.Crashes = %d, want 1", st.Crashes)
		}
	})
}

// ring is the one-round SPMD body of the kill/respawn tests: every rank
// passes its rank to its successor, checks what its predecessor sent,
// and enters the barrier.
func ring(c *Comm) error {
	p := c.Size()
	if err := SendValue(c, (c.Rank()+1)%p, 3, int64(c.Rank())); err != nil {
		return err
	}
	got, err := RecvValue[int64](c, (c.Rank()+p-1)%p, 3)
	if err != nil {
		return err
	}
	if want := int64((c.Rank() + p - 1) % p); got != want {
		return fmt.Errorf("rank %d: got %d, want %d", c.Rank(), got, want)
	}
	return c.Barrier()
}

// TestTCPLoopbackKillRespawnRejoin is the full recovery cycle at the
// transport level: a clean run, kill -9 of one rank (every survivor
// fails with the same typed error), respawn + rejoin, and a clean run
// again over the same Pool — with the lifecycle counters recording the
// churn and no goroutines left behind at the end.
func TestTCPLoopbackKillRespawnRejoin(t *testing.T) {
	base := runtime.NumGoroutine()
	const p, victim = 3, 2
	mesh, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(p, WithTransport(mesh), WithTimeout(20*time.Second))

	ctx := t.Context()
	if err := pool.Run(ctx, ring); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	mesh.Kill(victim)
	rankErrs := make([]error, p)
	var mu sync.Mutex
	pool.Run(ctx, func(c *Comm) error {
		err := ring(c)
		mu.Lock()
		rankErrs[c.Rank()] = err
		mu.Unlock()
		return err
	})
	for r, err := range rankErrs {
		if r == victim {
			if !errors.Is(err, ErrTransportClosed) && err == nil {
				t.Errorf("killed rank %d ran to completion (%v)", r, err)
			}
			continue
		}
		var crash *PeerCrashError
		if !errors.As(err, &crash) || crash.Rank != victim {
			t.Fatalf("survivor %d error %v is not a PeerCrashError for rank %d", r, err, victim)
		}
	}

	if err := mesh.Respawn(victim); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	if err := pool.Run(ctx, ring); err != nil {
		t.Fatalf("post-rejoin run: %v", err)
	}
	ctr := TotalCounters(mesh)
	// 1 from the joiner, plus 1 per survivor that re-adopted it.
	if ctr.Respawns != int64(p) {
		t.Errorf("TotalCounters().Respawns = %d, want %d", ctr.Respawns, p)
	}

	pool.Close()
	mesh.Close()
	waitGoroutines(t, base)
}

// TestKillRespawnCycles drives one mesh through 50 kill → failed run →
// respawn → clean run cycles, alternating the victim so both ranks pass
// incarnation 1 many times over. Every cycle is a chance for a late
// event of the dead incarnation (its EOF, a survivor's crash report) to
// be charged to the healed slot or to the next generation; any of them
// fails the clean run, and the 2 s pool timeout turns a parked rank into
// a failure instead of a hang.
func TestKillRespawnCycles(t *testing.T) {
	const p, cycles = 3, 50
	mesh, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	pool := NewPool(p, WithTransport(mesh), WithTimeout(2*time.Second))
	defer pool.Close()
	ctx := t.Context()
	for cycle := 0; cycle < cycles; cycle++ {
		victim := 1 + cycle%2
		mesh.Kill(victim)
		err := pool.Run(ctx, ring)
		var crash *PeerCrashError
		if !errors.As(err, &crash) || crash.Rank != victim {
			t.Fatalf("cycle %d: run without rank %d returned %v, want its PeerCrashError", cycle, victim, err)
		}
		if want := uint32(cycle / 2); crash.Incarnation != want {
			t.Fatalf("cycle %d: crash names incarnation %d of rank %d, want %d", cycle, crash.Incarnation, victim, want)
		}
		if err := mesh.Respawn(victim); err != nil {
			t.Fatalf("cycle %d: respawn: %v", cycle, err)
		}
		if err := pool.Run(ctx, ring); err != nil {
			t.Fatalf("cycle %d: healed run: %v", cycle, err)
		}
	}
}

// TestTCPRespawnRefusesLiveRank: Respawn of a rank that was never
// killed must fail loudly instead of double-binding the rank.
func TestTCPRespawnRefusesLiveRank(t *testing.T) {
	mesh, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	if err := mesh.Respawn(1); err == nil {
		t.Fatal("Respawn of a live rank succeeded")
	}
}

// dialWorkerNodesOpts is dialWorkerNodes with a TCPOptions template
// (liveness settings) applied to every endpoint.
func dialWorkerNodesOpts(t *testing.T, p int, tmpl TCPOptions) []*TCPTransport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*TCPTransport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := tmpl
			opts.Coordinator = ln.Addr().String()
			opts.Rank = r
			opts.Procs = p
			if opts.BootstrapTimeout == 0 {
				opts.BootstrapTimeout = 10 * time.Second
			}
			if r == 0 {
				opts.CoordinatorListener = ln
			}
			nodes[r], errs[r] = DialTCP(opts)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		var cwg sync.WaitGroup
		for _, n := range nodes {
			cwg.Add(1)
			go func(n *TCPTransport) { defer cwg.Done(); n.Close() }(n)
		}
		cwg.Wait()
	})
	return nodes
}

// TestHeartbeatDetectsHungPeer: a peer whose process is alive but hung
// (socket open, nothing flowing — here: heartbeats suspended) is
// declared crashed after PeerTimeout, and the blocked receiver unblocks
// with the typed error instead of hanging until the watchdog.
func TestHeartbeatDetectsHungPeer(t *testing.T) {
	nodes := dialWorkerNodesOpts(t, 2, TCPOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		PeerTimeout:       200 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, err := nodes[0].Recv(0, 1, 5) // nothing will ever arrive
		done <- err
	}()
	nodes[1].SuspendHeartbeats(true) // rank 1 "hangs": alive, silent
	select {
	case err := <-done:
		var crash *PeerCrashError
		if !errors.As(err, &crash) || crash.Rank != 1 {
			t.Fatalf("hung peer surfaced as %v, want PeerCrashError for rank 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("heartbeat monitor never declared the hung peer crashed")
	}
}

// TestHeartbeatKeepsIdleWorldAlive: heartbeats must prevent false
// positives — two endpoints idling far longer than PeerTimeout stay
// healthy because heartbeat frames count as traffic.
func TestHeartbeatKeepsIdleWorldAlive(t *testing.T) {
	nodes := dialWorkerNodesOpts(t, 2, TCPOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		PeerTimeout:       60 * time.Millisecond,
	})
	time.Sleep(300 * time.Millisecond) // 5× PeerTimeout of pure idling
	for r, n := range nodes {
		if err := n.Err(); err != nil {
			t.Fatalf("idle endpoint %d latched %v; heartbeats failed to keep it alive", r, err)
		}
	}
	// And the world still works.
	if err := nodes[0].Send(0, 1, 4, int64(7), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].Recv(1, 0, 4); err != nil {
		t.Fatal(err)
	}
}

// TestDialRetryBackoff: the shared dial helper retries with backoff
// until the deadline against a dead address, and connects without
// retries against a live one.
func TestDialRetryBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	start := time.Now()
	_, retries, err := dialRetry(dead, 1, time.Now().Add(150*time.Millisecond))
	if err == nil {
		t.Fatal("dialRetry connected to a closed address")
	}
	if retries < 1 {
		t.Errorf("dialRetry gave up after %d retries in %v, want backoff retries", retries, time.Since(start))
	}

	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	c, retries, err := dialRetry(live.Addr().String(), 1, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if retries != 0 {
		t.Errorf("dialRetry to a live listener took %d retries, want 0", retries)
	}
}

// TestBootstrapVersionMismatchTypedError: a peer speaking a different
// hsswire version is rejected with a VersionMismatchError (inside the
// worker's BootstrapError), not a generic parse failure.
func TestBootstrapVersionMismatchTypedError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Fake coordinator from the future: replies to the registration with
	// a table stamped hsswire/999.
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var lenb [4]byte
		if _, err := io.ReadFull(c, lenb[:]); err != nil {
			return
		}
		b := make([]byte, binary.LittleEndian.Uint32(lenb[:]))
		if _, err := io.ReadFull(c, b); err != nil {
			return
		}
		reply, _ := json.Marshal(map[string]any{
			"proto": "hsswire/999", "type": "table", "procs": 2,
			"addrs": []string{"127.0.0.1:1", "127.0.0.1:2"},
		})
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(reply)))
		c.Write(lenb[:])
		c.Write(reply)
	}()
	_, err = DialTCP(TCPOptions{Coordinator: ln.Addr().String(), Rank: 1, Procs: 2, BootstrapTimeout: 5 * time.Second})
	if err == nil {
		t.Fatal("mixed-version bootstrap succeeded")
	}
	var boot *BootstrapError
	if !errors.As(err, &boot) || boot.Rank != 1 {
		t.Fatalf("error %v is not a BootstrapError for rank 1", err)
	}
	var ver *VersionMismatchError
	if !errors.As(err, &ver) {
		t.Fatalf("error %v does not carry a VersionMismatchError", err)
	}
	if ver.Peer != "hsswire/999" || ver.Local != protoID {
		t.Errorf("mismatch error %+v does not name both versions", ver)
	}
}

// TestFaultTransportClearCrashAfterRespawn: the ClearCrash +
// Respawn pair heals a chaos-crashed world for the next run.
func TestFaultTransportClearCrashAfterRespawn(t *testing.T) {
	const p, victim = 3, 1
	mesh, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	var sends atomic.Int64 // the victim's sends: the crash fires on its second
	ft := NewFaultTransport(mesh, FaultSpec{
		CrashRank: victim,
		CrashWhen: func(src, dst int, tag Tag) bool { return sends.Add(1) >= 2 },
	})
	defer ft.Close()
	pool := NewPool(p, WithTransport(ft), WithTimeout(20*time.Second))
	defer pool.Close()
	ring := func(c *Comm) error {
		for i := 0; i < 3; i++ {
			if err := SendValue(c, (c.Rank()+1)%p, 3, int64(i)); err != nil {
				return err
			}
			if _, err := RecvValue[int64](c, (c.Rank()+p-1)%p, 3); err != nil {
				return err
			}
		}
		return c.Barrier()
	}
	ctx := t.Context()
	if err := pool.Run(ctx, ring); err == nil {
		t.Fatal("run survived an armed crash trigger")
	}
	ft.ClearCrash()
	if err := mesh.Respawn(victim); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	if err := pool.Run(ctx, ring); err != nil {
		t.Fatalf("healed run: %v", err)
	}
}
