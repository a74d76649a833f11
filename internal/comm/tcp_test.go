package comm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// tcp_test.go: behaviors specific to the wire backend, beyond the
// shared conformance suite — teardown hygiene, measured accounting,
// cross-process cancellation identity, worker-mode (one Pool per
// endpoint) lockstep, and bootstrap failure modes.

// waitGoroutines polls until the goroutine count settles at or below
// base (teardown is asynchronous: readers observe EOFs on their own
// schedule).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d, want <= %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPGoroutineLeakAfterClose: a full construct → traffic → Close
// cycle leaves no reader, writer or bootstrap goroutines behind.
func TestTCPGoroutineLeakAfterClose(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		tr, err := NewTCPLoopback(4)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorld(4, WithTransport(tr), WithTimeout(10*time.Second))
		err = w.Run(func(c *Comm) error {
			if err := SendSlice(c, (c.Rank()+1)%4, 1, []int64{1, 2, 3}); err != nil {
				return err
			}
			if _, err := RecvSlice[int64](c, (c.Rank()+3)%4, 1); err != nil {
				return err
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.Close()
	}
	waitGoroutines(t, base)
}

// TestTCPGoroutineLeakAfterAbortedRun: Close after an abort (the messy
// path: latched errors, pending queues, parked waiters) is just as
// clean.
func TestTCPGoroutineLeakAfterAbortedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	tr, err := NewTCPLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(3, WithTransport(tr), WithTimeout(10*time.Second))
	w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		_, err := c.Recv(0, 7) // unblocked by the abort
		return err
	})
	tr.Close()
	waitGoroutines(t, base)
}

// TestTCPCountersMeasureWireTraffic: unlike the sim transport's modeled
// bytes, tcp counters report measured frames — headers included — and
// received bytes match sent bytes across a settled world.
func TestTCPCountersMeasureWireTraffic(t *testing.T) {
	tr, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	w := NewWorld(2, WithTransport(tr), WithTimeout(10*time.Second))
	payload := []int64{1, 2, 3, 4}
	if err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return SendSlice(c, 1, 1, payload)
		}
		got, err := RecvSlice[int64](c, 0, 1)
		if err != nil {
			return err
		}
		if len(got) != 4 {
			return fmt.Errorf("got %d keys", len(got))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sent := w.Counters(0)
	recv := w.Counters(1)
	// 32 payload bytes + frame header + codec type header: the exact
	// size is an implementation detail, but it must exceed the raw
	// payload (headers are real now) and match end to end.
	if sent.MsgsSent != 1 || sent.BytesSent <= 32 {
		t.Errorf("sender counters = %+v, want 1 msg, > 32 measured bytes", sent)
	}
	if recv.MsgsRecv != 1 || recv.BytesRecv != sent.BytesSent {
		t.Errorf("receiver counters = %+v, want bytes recv == bytes sent (%d)", recv, sent.BytesSent)
	}
}

// TestTCPRemoteCancellationIdentity: an abort caused by context
// cancellation on one process must surface on every other process as an
// error still satisfying errors.Is(err, context.Canceled) — the
// property that lets each worker of a cancelled sort return its own
// ctx.Err().
func TestTCPRemoteCancellationIdentity(t *testing.T) {
	nodes := dialWorkerNodes(t, 2)
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := nodes[1].Recv(1, 0, 9) // parked until the abort frame arrives
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	nodes[0].Abort(fmt.Errorf("%w: %w", ErrAborted, context.Canceled))
	wg.Wait()
	err := <-errCh
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("remote abort error %v does not preserve ErrAborted + context.Canceled", err)
	}
}

// dialWorkerNodes bootstraps p single-rank endpoints the way p worker
// processes would (independent DialTCP calls against one coordinator),
// inside this test process, and closes them at test end.
func dialWorkerNodes(t *testing.T, p int) []*TCPTransport {
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
			opts := TCPOptions{Coordinator: ln.Addr().String(), Rank: r, Procs: p, BootstrapTimeout: 10 * time.Second}
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

// TestTCPWorkerModePools is the multi-process drive model in
// miniature: each endpoint gets its own Pool (as each worker process
// would), pools Reset their own endpoints independently, and the
// generation fence keeps repeated runs in lockstep even though no
// process coordinates the resets. Also pins RankHoster wiring: each
// pool runs exactly its hosted rank.
func TestTCPWorkerModePools(t *testing.T) {
	const p, runs = 3, 5
	nodes := dialWorkerNodes(t, p)
	pools := make([]*Pool, p)
	for r := range nodes {
		pools[r] = NewPool(p, WithTransport(nodes[r]), WithTimeout(10*time.Second))
		defer pools[r].Close()
		if got := len(hostedRanks(nodes[r])); got != 1 {
			t.Fatalf("node %d hosts %d ranks, want 1", r, got)
		}
	}
	for run := 0; run < runs; run++ {
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := range pools {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = pools[r].Run(context.Background(), func(c *Comm) error {
					if c.Rank() != r {
						return fmt.Errorf("pool %d ran rank %d", r, c.Rank())
					}
					// Ring exchange with run-stamped payloads: a stale
					// frame from a previous generation would corrupt it.
					want := int64(run*100 + (c.Rank()+p-1)%p)
					if err := SendValue(c, (c.Rank()+1)%p, 3, int64(run*100+c.Rank())); err != nil {
						return err
					}
					got, err := RecvValue[int64](c, (c.Rank()+p-1)%p, 3)
					if err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("run %d rank %d: got %d, want %d (generation fence broken)", run, c.Rank(), got, want)
					}
					return c.Barrier()
				})
			}(r)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// TestTCPWorkerModeCancellation: cancelling one worker's context aborts
// the whole multi-pool world, and every pool's Run reports the
// cancellation identity.
func TestTCPWorkerModeCancellation(t *testing.T) {
	const p = 3
	nodes := dialWorkerNodes(t, p)
	pools := make([]*Pool, p)
	for r := range nodes {
		pools[r] = NewPool(p, WithTransport(nodes[r]), WithTimeout(10*time.Second))
		defer pools[r].Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := range pools {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Every rank parks in a Recv nobody satisfies; rank 0's
			// process cancels its context.
			errs[r] = pools[r].Run(ctx, func(c *Comm) error {
				if c.Rank() == 0 {
					time.AfterFunc(20*time.Millisecond, cancel)
				}
				_, err := c.Recv((c.Rank()+1)%p, 11)
				return err
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("pool %d error %v does not satisfy context.Canceled", r, err)
		}
	}
}

// TestTCPPeerCrashAborts: a peer vanishing without the shutdown
// handshake (process crash) aborts the world instead of hanging it.
func TestTCPPeerCrashAborts(t *testing.T) {
	nodes := dialWorkerNodes(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := nodes[1].Recv(1, 0, 5)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	nodes[0].forceClose() // simulated crash: sockets die, no shutdown frame
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned a message from a crashed peer")
		}
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("peer crash surfaced as %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hung after peer crash")
	}
}

// TestTCPBootstrapRejectsMismatchedWorld: a worker whose -nprocs
// disagrees with the coordinator is turned away with a clear error, and
// the coordinator fails rather than building a partial mesh.
func TestTCPBootstrapRejectsMismatchedWorld(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var coordErr, workerErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr, err := DialTCP(TCPOptions{Coordinator: ln.Addr().String(), Rank: 0, Procs: 2, CoordinatorListener: ln, BootstrapTimeout: 5 * time.Second})
		if tr != nil {
			tr.Close()
		}
		coordErr = err
	}()
	go func() {
		defer wg.Done()
		tr, err := DialTCP(TCPOptions{Coordinator: ln.Addr().String(), Rank: 1, Procs: 3, BootstrapTimeout: 5 * time.Second})
		if tr != nil {
			tr.Close()
		}
		workerErr = err
	}()
	wg.Wait()
	if coordErr == nil || workerErr == nil {
		t.Fatalf("mismatched world sizes bootstrapped: coord=%v worker=%v", coordErr, workerErr)
	}
	if !strings.Contains(workerErr.Error(), "mismatch") {
		t.Errorf("worker error %q does not explain the size mismatch", workerErr)
	}
}

// TestTCPBootstrapRejectsBadRank: ranks outside [0, Procs) fail fast.
func TestTCPBootstrapRejectsBadRank(t *testing.T) {
	if _, err := DialTCP(TCPOptions{Coordinator: "127.0.0.1:1", Rank: 5, Procs: 2}); err == nil {
		t.Fatal("out-of-range rank bootstrapped")
	}
	if _, err := DialTCP(TCPOptions{Rank: 0, Procs: 2}); err == nil {
		t.Fatal("missing coordinator address bootstrapped")
	}
}

// TestTCPSendValidatesLocalRank: a single-rank endpoint refuses to
// impersonate ranks it does not host.
func TestTCPSendValidatesLocalRank(t *testing.T) {
	nodes := dialWorkerNodes(t, 2)
	if err := nodes[0].Send(1, 0, 1, nil, 0); err == nil {
		t.Error("endpoint accepted a send as a non-hosted rank")
	}
	if _, err := nodes[0].Recv(1, 0, 1); err == nil {
		t.Error("endpoint accepted a receive as a non-hosted rank")
	}
}

// TestTCPFutureGenerationAbortKeepsIdentity: an abort frame from a peer
// that already Reset into the next run is buffered until this endpoint
// catches up — and must still carry the cancellation identity and
// message when it finally applies (regression: the buffered frame used
// to drop its JSON payload).
func TestTCPFutureGenerationAbortKeepsIdentity(t *testing.T) {
	nodes := dialWorkerNodes(t, 2)
	// Peer 0 races ahead into the next generation and cancels there.
	nodes[0].Reset()
	nodes[0].Abort(fmt.Errorf("%w: %w: user hit ctrl-c", ErrAborted, context.Canceled))
	// Whether the frame lands before or after our Reset, once we reach
	// the peer's generation the latch must carry the identity.
	nodes[1].Reset()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := nodes[1].Err(); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("future-generation abort lost its cancellation identity: %v", err)
			}
			if !strings.Contains(err.Error(), "ctrl-c") {
				t.Fatalf("future-generation abort lost its message: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("abort never propagated across the generation fence")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPResetKeepsLostPeerPoison: Reset clears cancellation aborts (the
// engine-reuse path) but must NOT clear a permanent connection loss —
// a dead peer cannot come back, and an unlatched transport would wedge
// the next run until the watchdog.
func TestTCPResetKeepsLostPeerPoison(t *testing.T) {
	nodes := dialWorkerNodes(t, 2)
	nodes[0].forceClose() // simulated crash
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("peer crash never latched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	nodes[1].Reset()
	err := nodes[1].Err()
	if err == nil {
		t.Fatal("Reset cleared the lost-peer poison; the next run would hang")
	}
	var crash *PeerCrashError
	if !errors.As(err, &crash) || crash.Rank != 0 {
		t.Fatalf("poison error %v is not a PeerCrashError naming rank 0", err)
	}
	// A cancellation abort, by contrast, must still clear.
	fresh := dialWorkerNodes(t, 2)
	fresh[0].Abort(context.Canceled)
	fresh[0].Reset()
	if err := fresh[0].Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected latch after reset: %v", err)
	}
	if err := fresh[0].Err(); err != nil && errors.As(err, &crash) {
		t.Fatalf("cancellation mislabeled as a peer crash: %v", err)
	}
}

// waitLatched polls until n's abort latch is set.
func waitLatched(t *testing.T, n *TCPTransport, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: %s", n.Rank(), what)
		}
		time.Sleep(time.Millisecond)
	}
}

// killedMesh builds a p-rank loopback mesh, kills victim and waits until
// every survivor has retired its connection to it: the state one step
// before Respawn that the three ordering-race cases below start from.
// old is rank 0's conn to the dead incarnation.
func killedMesh(t *testing.T, p, victim int) (mesh *TCPLoopback, old *tcpConn) {
	t.Helper()
	mesh, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Close() })
	old = mesh.Node(0).conns[victim].Load()
	mesh.Kill(victim)
	for r := 0; r < p; r++ {
		if r != victim {
			waitLatched(t, mesh.Node(r), "never noticed the victim's death")
		}
	}
	return mesh, old
}

// wantCleanReset Resets the mesh and fails if any endpoint comes out of
// it poisoned: the world is whole, so nothing may be charged to the new
// generation.
func wantCleanReset(t *testing.T, mesh *TCPLoopback) {
	t.Helper()
	mesh.Reset()
	for r := 0; r < mesh.Size(); r++ {
		if err := mesh.Node(r).Err(); err != nil {
			t.Errorf("rank %d enters the generation after the rejoin poisoned: %v", r, err)
		}
	}
}

// TestTCPRespawnReturnsHealed (ack before adopt): a survivor acks a
// rejoin handshake only after it swapped the joiner into the slot, so
// Respawn returning means no survivor still holds a retired conn. With
// rank 0's generation lock held — a Reset in progress — the adoption
// and therefore the ack must wait; the Reset right behind Respawn is
// then clean even with RejoinWait 0.
func TestTCPRespawnReturnsHealed(t *testing.T) {
	const p, victim = 3, 2
	mesh, _ := killedMesh(t, p, victim)
	n0 := mesh.Node(0)
	n0.genMu.Lock()
	done := make(chan error, 1)
	go func() { done <- mesh.Respawn(victim) }()
	select {
	case err := <-done:
		n0.genMu.Unlock()
		t.Fatalf("Respawn returned (%v) before rank 0 adopted the joiner", err)
	case <-time.After(100 * time.Millisecond):
	}
	n0.genMu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("respawn: %v", err)
	}
	wantCleanReset(t, mesh)
}

// TestTCPStaleCrashReportAfterRejoin (stale remote report): a
// survivor's crash report for the dead incarnation that arrives after
// this endpoint adopted the successor, still inside the crashed
// generation, must not mark the healed rank lost again.
func TestTCPStaleCrashReportAfterRejoin(t *testing.T) {
	const p, victim = 3, 2
	mesh, _ := killedMesh(t, p, victim)
	if err := mesh.Respawn(victim); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	// Rank 1 left its latch behind and is parked at the next run's
	// Reset, as a worker process retrying would be; rank 0's report of
	// incarnation 0 reaches it only now.
	n1 := mesh.Node(1)
	n1.abort.reset()
	mesh.Node(0).Abort(&PeerCrashError{Rank: victim, Err: errors.New("late report of the first death")})
	waitLatched(t, n1, "rank 0's report never arrived")
	wantCleanReset(t, mesh)
}

// TestTCPStaleEOFAfterReset (EOF charged to the next generation): the
// dead socket's EOF is handled as one step under the generation lock,
// so it lands wholly before a Reset or finds the conn already retired.
// A reader that got as far as peerLost while a Reset holds the lock
// must wait, and one that wakes after the rejoin and the Reset latches
// nothing in the new generation.
func TestTCPStaleEOFAfterReset(t *testing.T) {
	const p, victim = 3, 2
	mesh, old := killedMesh(t, p, victim)
	if err := mesh.Respawn(victim); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	n0 := mesh.Node(0)
	n0.genMu.Lock()
	done := make(chan struct{})
	go func() { n0.peerLost(old, io.EOF); close(done) }()
	select {
	case <-done:
		n0.genMu.Unlock()
		t.Fatal("the EOF was handled while a Reset held the generation lock")
	case <-time.After(100 * time.Millisecond):
	}
	n0.genMu.Unlock()
	<-done
	mesh.Reset()
	n0.peerLost(old, io.EOF)
	wantCleanReset(t, mesh)
}

// rawHandshake sends one handshake message to the listener at addr, as a
// misbehaving or stale peer would, and returns the reply's error: nil
// for an ack or a table, the refusal otherwise.
func rawHandshake(t *testing.T, addr string, m bootMsg) error {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeBootMsg(c, m); err != nil {
		t.Fatal(err)
	}
	_, err = readBootMsg(c)
	return err
}

// acceptCounter reports each Accept call of the listener it wraps: the
// accept loop serves handshakes serially, so its next call means the
// previous handshake is done.
type acceptCounter struct {
	net.Listener
	calls chan struct{}
}

func (l acceptCounter) Accept() (net.Conn, error) {
	select {
	case l.calls <- struct{}{}:
	default:
	}
	return l.Listener.Accept()
}

// TestTCPJoinRefusals: every handshake the join turns away is refused
// with its reason, and no refusal disturbs the mesh — no slot is
// retired or replaced, the coordinator's table is untouched, and the
// world still completes a Barrier. The data handshakes present an
// incarnation the slot already holds or has outlived: a duplicate while
// the world still bootstraps, a duplicate of a bootstrap handshake, and
// after a Respawn both the dead incarnation and a duplicate of the
// rejoin.
func TestTCPJoinRefusals(t *testing.T) {
	t.Run("bootstrapping", refuseDuringBootstrap)
	t.Run("live", refuseOnLiveMesh)
}

// refuseDuringBootstrap holds a 3-rank bootstrap at the point where rank
// 0 has adopted rank 1 but not yet rank 2 — rank 2 registers through a
// relay that withholds its table reply — and presents rank 0 a second
// incarnation-0 conn from rank 1. The refusal must neither fail rank 0's
// bootstrap nor replace rank 1's conn.
func refuseDuringBootstrap(t *testing.T) {
	const p = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := acceptCounter{ln, make(chan struct{}, 16)}
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	release := make(chan struct{})
	go func() {
		c, err := relay.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		up, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(up, c)
		<-release
		io.Copy(c, up)
	}()
	nodes := make([]*TCPTransport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range p {
		opts := TCPOptions{Coordinator: ln.Addr().String(), Rank: r, Procs: p, BootstrapTimeout: 10 * time.Second}
		switch r {
		case 0:
			opts.CoordinatorListener = coord
		case 2:
			opts.Coordinator = relay.Addr().String()
		}
		wg.Add(1)
		go func() { defer wg.Done(); nodes[r], errs[r] = DialTCP(opts) }()
	}
	// Rank 0 accepts both registrations, then rank 1's data handshake;
	// its fourth Accept call means it has adopted rank 1.
	for range 4 {
		select {
		case <-coord.calls:
		case <-time.After(10 * time.Second):
			t.Fatal("rank 0 never adopted rank 1")
		}
	}
	err = rawHandshake(t, ln.Addr().String(), bootMsg{Type: "data", Src: 1, Dst: 0})
	close(release)
	wg.Wait()
	defer func() {
		for _, n := range nodes {
			if n != nil {
				wg.Add(1)
				go func() { defer wg.Done(); n.Close() }() // peers await each other's shutdown
			}
		}
		wg.Wait()
	}()
	if want := "already holds incarnation 0 of rank 1, refusing 0"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("duplicate during bootstrap answered %v, want a refusal naming %q", err, want)
	}
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("the refusal failed the bootstrap: %v", err)
	}
	if pc := nodes[0].conns[1].Load(); pc.retired.Load() != nil {
		t.Fatalf("the refusal retired rank 0's conn to rank 1: %v", pc.retired.Load())
	}
	errs = make([]error, p)
	for r, n := range nodes {
		pool := NewPool(p, WithTransport(n), WithTimeout(10*time.Second))
		defer pool.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = pool.Run(t.Context(), func(c *Comm) error { return c.Barrier() })
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("barrier after the refusal: %v", err)
	}
}

// refuseOnLiveMesh presents every refusal to a bootstrapped loopback
// mesh, then again after a Respawn.
func refuseOnLiveMesh(t *testing.T) {
	const p, victim = 3, 2
	mesh, err := NewTCPLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	pool := NewPool(p, WithTransport(mesh), WithTimeout(10*time.Second))
	defer pool.Close()
	table := func() []string {
		n0 := mesh.Node(0)
		n0.tableMu.Lock()
		defer n0.tableMu.Unlock()
		return slices.Clone(n0.table)
	}
	type refusal struct {
		to   int
		m    bootMsg
		want string
	}
	refuseAll := func(stage string, cases []refusal) {
		t.Helper()
		slots := make([][]*tcpConn, p)
		for r := range slots {
			for j := range p {
				slots[r] = append(slots[r], mesh.Node(r).conns[j].Load())
			}
		}
		before := table()
		for _, c := range cases {
			err := rawHandshake(t, mesh.Node(c.to).ln.Addr().String(), c.m)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s %+v at rank %d answered %v, want a refusal naming %q", stage, c.m.Type, c.m, c.to, err, c.want)
			}
		}
		for r := range slots {
			for j, pc := range slots[r] {
				if got := mesh.Node(r).conns[j].Load(); got != pc || pc != nil && pc.retired.Load() != nil {
					t.Errorf("%s: a refused handshake disturbed rank %d's slot for rank %d", stage, r, j)
				}
			}
		}
		if after := table(); !slices.Equal(after, before) {
			t.Errorf("%s: a refused registration changed the table %v to %v", stage, before, after)
		}
		if err := pool.Run(t.Context(), func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatalf("%s: barrier after the refusals: %v", stage, err)
		}
	}

	refuseAll("bootstrapped", []refusal{
		{0, bootMsg{Type: "data", Src: 1, Dst: 0}, "already holds incarnation 0 of rank 1, refusing 0"},
		{1, bootMsg{Type: "data", Src: 2, Dst: 1}, "already holds incarnation 0 of rank 2, refusing 0"},
		{0, bootMsg{Type: "data", Src: 1, Dst: 2}, "bad data pair"},
		{0, bootMsg{Type: "register", Rank: 1, Procs: p, Addr: "127.0.0.1:1"}, "already bootstrapped"},
		{0, bootMsg{Type: "register", Rank: 1, Procs: p + 1, Addr: "127.0.0.1:1", Rejoin: true}, "mismatch"},
		{0, bootMsg{Type: "register", Procs: p, Addr: "127.0.0.1:1", Rejoin: true}, "invalid or duplicate rank 0"},
		{1, bootMsg{Type: "register", Rank: 2, Procs: p, Addr: "127.0.0.1:1", Rejoin: true}, "must go to the coordinator"},
	})

	mesh.Kill(victim)
	waitLatched(t, mesh.Node(0), "never noticed the victim's death")
	waitLatched(t, mesh.Node(1), "never noticed the victim's death")
	if err := mesh.Respawn(victim); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	refuseAll("respawned", []refusal{
		{0, bootMsg{Type: "data", Src: victim, Dst: 0}, "already holds incarnation 1 of rank 2, refusing 0"},
		{1, bootMsg{Type: "data", Src: victim, Dst: 1, Inc: 1}, "already holds incarnation 1 of rank 2, refusing 1"},
	})
}
