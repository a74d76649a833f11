package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Tag distinguishes message streams between the same pair of ranks.
// Packages building on comm reserve disjoint tag ranges (see the Tag*
// constants in internal/core); comm itself reserves the top tag for
// Barrier.
type Tag uint32

// tagBarrier is the tag Barrier's messages travel on. No protocol
// allocates from the top of the tag space, so no other receive can
// match them.
const tagBarrier = ^Tag(0)

// AnySource may be passed to Recv as src to match a message from any rank.
const AnySource = -1

// ErrAborted is returned from Send/Recv after the World aborts (rank
// panic, explicit Abort, or timeout).
var ErrAborted = errors.New("comm: world aborted")

// Message is one delivered unit: payload plus envelope.
type Message struct {
	// Src is the sending rank.
	Src int
	// Tag is the stream tag the message was sent with.
	Tag Tag
	// Payload is the transferred value, shared by reference.
	Payload any
	// Bytes is the accounted wire size of Payload (zero under
	// non-accounting transports).
	Bytes int64
}

// Counters accumulates per-rank traffic statistics. Each rank mutates only
// its own Counters from its own goroutine; read them after Run returns or
// from the owning rank.
type Counters struct {
	// MsgsSent and BytesSent count outgoing traffic.
	MsgsSent, BytesSent int64
	// MsgsRecv and BytesRecv count delivered (received) traffic.
	MsgsRecv, BytesRecv int64
	// Reconnects counts dial retries beyond each first attempt, across
	// every dial of a join. Respawns counts rejoins: 1 on an endpoint
	// that rejoined an existing world, plus 1 on each survivor per peer
	// it re-adopted. Both are lifecycle counters — they describe the
	// mesh, not one run — so unlike the traffic counters they survive
	// Reset.
	// Always zero on the in-memory transports.
	Reconnects, Respawns int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.MsgsSent += other.MsgsSent
	c.BytesSent += other.BytesSent
	c.MsgsRecv += other.MsgsRecv
	c.BytesRecv += other.BytesRecv
	c.Reconnects += other.Reconnects
	c.Respawns += other.Respawns
}

// panicSize reports an invalid world size.
func panicSize(p int) {
	panic(fmt.Sprintf("comm: world size %d < 1", p))
}

// World hosts p ranks over a Transport and orchestrates their lifecycle:
// SPMD launch, panic containment, and the watchdog timeout.
type World struct {
	t       Transport
	timeout time.Duration
}

// Option configures a World.
type Option func(*World)

// WithTimeout aborts the World if Run has not completed within d. A zero d
// disables the watchdog (the default).
func WithTimeout(d time.Duration) Option {
	return func(w *World) { w.timeout = d }
}

// WithTransport runs the World over t instead of the default simulated
// backend. The transport's size must match the world size.
func WithTransport(t Transport) Option {
	return func(w *World) { w.t = t }
}

// NewWorld creates a World with p ranks. Without WithTransport it runs
// over a fresh NewSimTransport(p). It panics if p < 1 or if a supplied
// transport connects a different number of ranks.
func NewWorld(p int, opts ...Option) *World {
	if p < 1 {
		panicSize(p)
	}
	w := &World{}
	for _, o := range opts {
		o(w)
	}
	if w.t == nil {
		w.t = NewSimTransport(p)
	}
	if w.t.Size() != p {
		panic(fmt.Sprintf("comm: transport size %d != world size %d", w.t.Size(), p))
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.t.Size() }

// Transport returns the backend the World runs over.
func (w *World) Transport() Transport { return w.t }

// Abort unblocks all pending and future Send/Recv calls with err (wrapped
// in ErrAborted if err is nil). The first abort wins.
func (w *World) Abort(err error) { w.t.Abort(err) }

// HostedRanks returns how many of this World's ranks live in this
// process: Size() for in-memory transports, the local subset for a
// multi-process transport. Callers use it to divide the machine's cores
// among co-hosted ranks (see hssort.Config.Workers).
func (w *World) HostedRanks() int { return len(hostedRanks(w.t)) }

// Run executes fn concurrently on every rank hosted in this process and
// waits for all to finish. In-memory transports host all ranks, so fn
// runs Size() times; a multi-process transport (comm.RankHoster, e.g.
// TCPTransport) hosts a subset and the peer processes run the rest of
// the same SPMD program. Run returns the joined errors of the hosted
// ranks. A rank that returns an error or panics (reported as its error)
// aborts the World — across processes, for a wire transport — and the
// other ranks then fail with ErrAborted instead of hanging (runRank).
func (w *World) Run(fn func(c *Comm) error) error {
	var timer *time.Timer
	if w.timeout > 0 {
		timer = time.AfterFunc(w.timeout, func() {
			w.Abort(fmt.Errorf("%w: timeout after %v", ErrAborted, w.timeout))
		})
		defer timer.Stop()
	}
	ranks := hostedRanks(w.t)
	var wg sync.WaitGroup
	var failed sync.Once
	errs := make([]error, len(ranks))
	for i, r := range ranks {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			errs[i] = runRank(&Comm{w: w, rank: rank}, fn, &failed)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Counters returns a copy of rank r's traffic counters. Call after Run
// returns (or from rank r itself) to avoid racing the owning goroutine.
func (w *World) Counters(r int) Counters { return w.t.Counters(r) }

// TotalCounters sums the counters of the ranks hosted in this process:
// TotalCounters(w.Transport()).
func (w *World) TotalCounters() Counters { return TotalCounters(w.t) }

// Comm is one rank's handle to the World. Endpoint abstracts it so
// sub-groups (internal/collective.Group) can reuse the collectives.
type Comm struct {
	w    *World
	rank int
	// ctx is the run's context under Pool.Run and done its Done channel
	// (both nil under World.Run, and done is nil for a context that can
	// never end): every communication call probes done on entry.
	ctx  context.Context
	done <-chan struct{}
}

// Endpoint is the rank-addressed messaging surface collectives are built
// on: a Comm, or a Group view of a Comm subset.
type Endpoint interface {
	// Rank returns the caller's rank within the endpoint.
	Rank() int
	// Size returns the number of ranks in the endpoint.
	Size() int
	// Send delivers payload to dst asynchronously; bytes is the
	// accounted wire size.
	Send(dst int, tag Tag, payload any, bytes int64) error
	// Recv blocks for the next message matching (src, tag); src may be
	// AnySource.
	Recv(src int, tag Tag) (Message, error)
}

// StreamEndpoint is the endpoint surface streaming protocols need beyond
// Endpoint: a posted-receive probe (TryRecv) so a rank can overlap local
// work with the exchange, and a blocking any-source wait (RecvAny) so a
// rank out of local work parks until the next protocol event — whatever
// peer it comes from — instead of committing to one sender and
// deadlocking on another. Comm implements it natively;
// collective.Group implements it over a StreamEndpoint parent.
type StreamEndpoint interface {
	Endpoint
	// TryRecv returns the next message matching (src, tag) if one is
	// already buffered, without blocking. src may be AnySource.
	TryRecv(src int, tag Tag) (Message, bool, error)
	// RecvAny blocks for the next message with the given tag from any
	// rank of the endpoint.
	RecvAny(tag Tag) (Message, error)
}

var _ Endpoint = (*Comm)(nil)
var _ StreamEndpoint = (*Comm)(nil)

// Rank returns this handle's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the World size.
func (c *Comm) Size() int { return c.w.Size() }

// World returns the hosting World (for counters and abort).
func (c *Comm) World() *World { return c.w }

// Counters returns this rank's own traffic counters.
func (c *Comm) Counters() Counters { return c.w.t.Counters(c.rank) }

// cancelled reports the run's cancellation synchronously: once cancel()
// has returned (or the deadline passed), the next communication call of
// any rank aborts the transport itself and fails with an error
// satisfying errors.Is(err, ctx.Err()), whether or not Pool.Run's
// asynchronous AfterFunc abort has been scheduled yet. The probe is one
// non-blocking channel poll, lock-free while the context is live. The
// rank calling it is part of the active run, so the abort cannot land
// on a later run's Reset transport.
func (c *Comm) cancelled() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		err := cancelError(c.ctx)
		c.w.t.Abort(err)
		return err
	default:
		return nil
	}
}

// Send delivers payload to rank dst on stream tag. bytes is the accounted
// wire size of the payload (use the Slice/Value helpers to compute it).
// Send never blocks; it fails only if dst is invalid or the World aborted.
func (c *Comm) Send(dst int, tag Tag, payload any, bytes int64) error {
	if dst < 0 || dst >= c.w.Size() {
		return fmt.Errorf("comm: rank %d sent to invalid rank %d (world size %d)", c.rank, dst, c.w.Size())
	}
	if err := c.cancelled(); err != nil {
		return err
	}
	return c.w.t.Send(c.rank, dst, tag, payload, bytes)
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// src may be AnySource. Messages from one sender on one tag arrive in send
// order; messages that do not match are left queued for other Recv calls.
func (c *Comm) Recv(src int, tag Tag) (Message, error) {
	if src != AnySource && (src < 0 || src >= c.w.Size()) {
		return Message{}, fmt.Errorf("comm: rank %d receiving from invalid rank %d", c.rank, src)
	}
	if err := c.cancelled(); err != nil {
		return Message{}, err
	}
	return c.w.t.Recv(c.rank, src, tag)
}

// TryRecv returns the next message matching (src, tag) if one is already
// buffered, without blocking; ok reports whether a message was delivered.
// src may be AnySource.
func (c *Comm) TryRecv(src int, tag Tag) (Message, bool, error) {
	if src != AnySource && (src < 0 || src >= c.w.Size()) {
		return Message{}, false, fmt.Errorf("comm: rank %d probing invalid rank %d", c.rank, src)
	}
	if err := c.cancelled(); err != nil {
		return Message{}, false, err
	}
	return c.w.t.TryRecv(c.rank, src, tag)
}

// RecvAny blocks for the next message with the given tag from any rank.
func (c *Comm) RecvAny(tag Tag) (Message, error) { return c.Recv(AnySource, tag) }

// Barrier blocks until every rank of the World has entered it. It is the
// dissemination barrier the paper's cost analysis (§5.1) prices:
// ⌈log₂p⌉ rounds, in round k one empty message to rank+2^k and one
// receive from rank−2^k, all on a reserved tag. Like every blocking call
// of the runtime it waits in an inbox receive, so aborts, cancellation,
// fault injection and accounting reach it as they reach any Recv, and
// sim counts its p·⌈log₂p⌉ messages. One tag serves back-to-back
// barriers: each rank sends to a given peer once per barrier, and
// pairwise FIFO matches every receive to the same barrier's send.
func (c *Comm) Barrier() error {
	if err := c.cancelled(); err != nil {
		return err // a one-rank world sends nothing, so probe here
	}
	p := c.Size()
	for mask := 1; mask < p; mask <<= 1 {
		if err := c.Send((c.rank+mask)%p, tagBarrier, nil, 0); err != nil {
			return fmt.Errorf("comm: rank %d barrier: %w", c.rank, err)
		}
		if _, err := c.Recv((c.rank-mask+p)%p, tagBarrier); err != nil {
			return fmt.Errorf("comm: rank %d barrier: %w", c.rank, err)
		}
	}
	return nil
}
