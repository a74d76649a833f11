package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Pool is a persistent SPMD worker world: p rank goroutines and one
// transport constructed once, then driven through any number of Run
// calls. It is the engine-reuse counterpart of World.Run — a World
// spawns p fresh goroutines and is married to one transport lifetime,
// while a Pool parks its workers between runs and Resets the transport
// so the next run starts from a clean protocol state even after an
// abort or cancellation.
//
// Run is additionally context-aware: cancellation (or deadline expiry)
// flows into the transport's abort machinery, so every rank parked in a
// receive (Recv, Barrier, any collective) unblocks with an error
// satisfying errors.Is(err, ctx.Err()) — the cooperative cancellation
// path for long-lived sorting services. Ranks that are not blocked see
// it too:
// every Comm call probes the run's context on entry, so no rank enters
// communication after cancel() has returned.
//
// A Pool serializes runs: Run holds an internal lock for its duration,
// so concurrent Run calls execute one after another. Close stops the
// workers; it is the caller's lifecycle hook (hssort.Sorter.Close).
type Pool struct {
	t       Transport
	timeout time.Duration

	mu      sync.Mutex // serializes Run; guards closed
	closed  bool
	ranks   []int // the ranks hosted in this process (all, unless RankHoster)
	jobs    []chan poolJob
	results chan rankResult
	wg      sync.WaitGroup

	// abortMu fences the asynchronous abort callbacks (ctx cancellation,
	// watchdog): active holds the generation of the run in flight, 0
	// when idle. A callback whose generation no longer matches is stale
	// — its run already finished — and must not abort the transport,
	// which by then may have been Reset for the next run.
	abortMu sync.Mutex
	gen     uint64
	active  uint64
}

// poolJob is one run's work for one rank: the SPMD function, the
// context its Comm probes for cancellation, and the run's first-failure
// gate (runRank).
type poolJob struct {
	ctx    context.Context
	fn     func(c *Comm) error
	failed *sync.Once
}

// rankResult is one worker's outcome for the current run.
type rankResult struct {
	rank int
	err  error
}

// NewPool creates a Pool over a p-rank world. It accepts the same
// options as NewWorld (WithTransport, WithTimeout) and panics under the
// same conditions. Worker goroutines are spawned only
// for the ranks the transport hosts in this process (all of them for
// the in-memory backends; the local rank for a multi-process
// TCPTransport endpoint).
func NewPool(p int, opts ...Option) *Pool {
	w := NewWorld(p, opts...)
	ranks := hostedRanks(w.t)
	pl := &Pool{
		t:       w.t,
		timeout: w.timeout,
		ranks:   ranks,
		jobs:    make([]chan poolJob, len(ranks)),
		results: make(chan rankResult, len(ranks)),
	}
	for i, r := range ranks {
		pl.jobs[i] = make(chan poolJob)
		pl.wg.Add(1)
		go func(i, rank int) {
			defer pl.wg.Done()
			for job := range pl.jobs[i] {
				c := &Comm{w: w, rank: rank, ctx: job.ctx, done: job.ctx.Done()}
				pl.results <- rankResult{rank, runRank(c, job.fn, job.failed)}
			}
		}(i, r)
	}
	return pl
}

// runRank executes fn as one rank of a run, under the rule World.Run
// and Pool.Run share: a failed rank fails the world. The SPMD protocols
// are bulk-synchronous, so a rank that returns an error (or panics,
// which is reported as its error and leaves the worker goroutine alive)
// will never reach the collectives its peers are parked in; the first
// such rank of a run (failed) aborts the transport with its error,
// unblocking them. Errors that came out of the abort latch re-abort
// harmlessly (first abort wins) — which is also how a latch only this
// endpoint holds, Reset's lost-peer poison, reaches the other
// processes. A rank failing with ErrTransportClosed is exempt: its own
// endpoint was killed, and the survivors' *PeerCrashError naming it
// must win first-abort. The caller is part of the active run, so the
// abort cannot land on a later run's Reset transport.
func runRank(c *Comm, fn func(c *Comm) error, failed *sync.Once) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("comm: rank %d panicked: %v", c.rank, rec)
		}
		if err != nil && !errors.Is(err, ErrTransportClosed) {
			failed.Do(func() { c.w.Abort(fmt.Errorf("%w: rank %d failed: %w", ErrAborted, c.rank, err)) })
		}
	}()
	return fn(c)
}

// Size returns the number of ranks in the world (across all processes,
// for a multi-process transport).
func (pl *Pool) Size() int { return pl.t.Size() }

// Transport returns the backend the Pool runs over. Read counters only
// between runs.
func (pl *Pool) Transport() Transport { return pl.t }

// HostedRanks returns how many of the Pool's ranks live in this process
// (see World.HostedRanks) — the divisor for per-rank core budgets.
func (pl *Pool) HostedRanks() int { return len(pl.ranks) }

// ErrPoolClosed is returned by Run after Close.
var ErrPoolClosed = errors.New("comm: pool closed")

// Run executes fn concurrently on every rank and waits for all to
// finish, returning the joined per-rank errors (nil if all succeeded).
//
// The transport is Reset before the ranks start, so each run begins
// with empty queues, a clean abort latch and zeroed counters — counters
// read between runs therefore describe exactly the last run.
//
// A rank that returns an error or panics fails the world: its peers
// unblock with an error wrapping ErrAborted and the rank's error instead
// of waiting for it in a collective it will never reach (runRank).
//
// ctx cancellation aborts the transport with an error wrapping both
// ErrAborted and ctx's cause, unblocking every rank; ranks that were
// inside communication calls, or enter one afterwards, return errors
// satisfying errors.Is(err, context.Cause(ctx)). Two paths deliver it:
// context.AfterFunc wakes ranks parked in the transport, and because
// that callback runs on its own goroutine — a fast sort could finish
// its remaining rounds before it is scheduled — every Comm call also
// probes ctx synchronously on entry (Comm.cancelled). The Pool's
// timeout option (the wedged-run watchdog) applies per run, independent
// of ctx.
func (pl *Pool) Run(ctx context.Context, fn func(c *Comm) error) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	pl.t.Reset()
	pl.abortMu.Lock()
	pl.gen++
	gen := pl.gen
	pl.active = gen
	pl.abortMu.Unlock()
	defer func() {
		pl.abortMu.Lock()
		pl.active = 0
		pl.abortMu.Unlock()
	}()
	// abortRun aborts the transport only while this run is still the
	// active one: AfterFunc callbacks can outlive their run (stop()
	// does not wait for a callback already started), and a stale abort
	// landing after the next run's Reset would poison that run.
	abortRun := func(err error) {
		pl.abortMu.Lock()
		defer pl.abortMu.Unlock()
		if pl.active == gen {
			pl.t.Abort(err)
		}
	}
	stop := context.AfterFunc(ctx, func() { abortRun(cancelError(ctx)) })
	defer stop()
	if pl.timeout > 0 {
		timer := time.AfterFunc(pl.timeout, func() {
			abortRun(fmt.Errorf("%w: timeout after %v", ErrAborted, pl.timeout))
		})
		defer timer.Stop()
	}
	failed := new(sync.Once)
	for _, ch := range pl.jobs {
		ch <- poolJob{ctx, fn, failed}
	}
	errs := make([]error, 0, len(pl.jobs))
	for range pl.jobs {
		res := <-pl.results
		errs = append(errs, res.err)
	}
	return errors.Join(errs...)
}

// cancelError is the abort error of a run whose (done) context ended.
// It wraps both ctx.Err() and the cause: a context cancelled with a
// custom cause (context.WithCancelCause) must still satisfy
// errors.Is(err, ctx.Err()) on every rank — the engine contract — while
// keeping the caller's cause visible.
func cancelError(ctx context.Context) error {
	err := ctx.Err()
	if cause := context.Cause(ctx); !errors.Is(err, cause) {
		err = fmt.Errorf("%w: %w", err, cause)
	}
	return fmt.Errorf("%w: %w", ErrAborted, err)
}

// Close stops the worker goroutines and waits for them to exit. It is
// idempotent; Run calls after Close return ErrPoolClosed.
func (pl *Pool) Close() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return
	}
	pl.closed = true
	for _, ch := range pl.jobs {
		close(ch)
	}
	pl.wg.Wait()
}
