package merge

import (
	"slices"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// RunQueue is the incremental form of the merge: k sorted runs that
// arrive chunk by chunk — AddRun registers a run that may still grow,
// Append feeds it, CloseRun seals it — and leave merged, in batches that
// go through the kernel (DrainReady) or key by key from a staged batch
// (NextReady, Next). It is what exchange.ExchangeStream merges received
// chunks with while the exchange is still in flight (a diverted stream
// refilled from its spill run included), and what FromSources drains
// chunk sources through.
//
// A queue is keyed by an optional code slice per chunk plus an optional
// tie comparator: NewCodeTree orders by the codes (raw uint64 compares,
// arbitrary element payloads riding along; on the pure code plane the
// element slices alias the code slices), NewCodeTreeTie resolves
// equal-code matches with the comparator first (the prefix plane), and
// the comparator plane (NewStreaming) carries no codes at all. Ties
// between runs always resolve in favor of the lower run index, so
// callers wanting a deterministic merge add runs in a deterministic
// order.
//
// What may be emitted is decided per batch, not per key. A key is safe
// once no future arrival can precede it: an open run i can still
// deliver anything at or after its last buffered key, so the safe
// bound is the smallest (last buffered key, run index) over the open
// runs, (b, j), and run i's ready prefix is every key before b plus
// every key equal to b when i ≤ j — exactly the keys a per-key merge
// would emit before run j drains and starves it, so duplicate-heavy and
// all-equal inputs drain as far as they ever could. An open run with an
// empty buffer starves the whole queue: nothing is safe.
type RunQueue[E any] struct {
	pl    plane[E]
	codes [][]codes.Code // current chunk per run; unused on the comparator plane
	elems [][]E
	pos   []int // next unread index per run, current-chunk-relative
	// pendC/pendE queue refill chunks per run, consumed front to back.
	// Invariant: a run whose current chunk is drained has no pending
	// chunks (commit moves on eagerly).
	pendC [][][]codes.Code
	pendE [][][]E
	// consumed counts keys ever emitted per run.
	consumed []int64
	// open marks runs that may still receive Append; opened counts them,
	// starved counts those with drained buffers (they block NextReady and
	// DrainReady).
	open    []bool
	opened  int
	starved int
	n       int

	sc      Scratch[E]
	bud     Budget
	charged []int64 // per run, bytes of appended chunks still held against bud
	// One batch: cuts[i] keys of run i, viewed by batchE/batchC.
	cuts   []int
	batchE [][]E
	batchC [][]codes.Code
	// stage holds a batch for the per-key pops, none of it committed to
	// the runs yet; next is the first key not popped. The runs advance
	// when the popped keys are settled, so Consumed and Rest stay exact.
	stage  []E
	stageC []codes.Code
	next   int
}

// stageKeys bounds the batch staged for per-key pops.
const stageKeys = 1 << 12

// NewCodeTree creates an empty code-keyed queue.
func NewCodeTree[E any]() *RunQueue[E] { return NewCodeTreeTie[E](nil) }

// NewCodeTreeTie creates a code-keyed queue for the prefix plane:
// matches whose codes collide are resolved by tie (then by run index).
// The runs must be fully tie-ordered themselves (code-sorted,
// comparator-sorted within equal-code spans).
func NewCodeTreeTie[E any](tie func(E, E) int) *RunQueue[E] {
	return &RunQueue[E]{pl: planeOf(true, tie)}
}

// SetBudget makes the queue the one place its input is charged to bud
// (nil: no accounting): every chunk appended from now on is charged on
// Append and released as its keys are consumed, and each batch's scratch
// is charged while the batch merges, clipping a batch that would not
// fit. What the runs already hold — the caller's own data — stays
// uncharged. Reset drops the setting.
func (q *RunQueue[E]) SetBudget(bud Budget) { q.bud = bud }

// Reset empties the queue for reuse, dropping all references to run data
// but keeping its arrays and scratch allocated — the engine-reuse hook
// that lets one queue serve many sorts without re-allocating per call.
func (q *RunQueue[E]) Reset() {
	clear(q.codes)
	clear(q.elems)
	clear(q.pendC)
	clear(q.pendE)
	clear(q.batchE)
	clear(q.batchC)
	clear(q.stage)
	q.sc.Clear()
	q.bud = nil
	q.codes, q.elems, q.pos = q.codes[:0], q.elems[:0], q.pos[:0]
	q.pendC, q.pendE = q.pendC[:0], q.pendE[:0]
	q.consumed, q.open, q.charged = q.consumed[:0], q.open[:0], q.charged[:0]
	q.stage, q.stageC, q.next = q.stage[:0], q.stageC[:0], 0
	q.n, q.opened, q.starved = 0, 0, 0
}

// AddRun registers a new, initially open run holding the given sorted
// elements and their parallel codes (nil for an empty stream; no codes
// on the comparator plane) and returns its index.
func (q *RunQueue[E]) AddRun(cs []codes.Code, elems []E) int {
	if q.pl.coded && len(cs) != len(elems) {
		panic("merge: RunQueue.AddRun code/element length mismatch")
	}
	q.codes = append(q.codes, cs)
	q.elems = append(q.elems, elems)
	q.pos = append(q.pos, 0)
	q.pendC = append(q.pendC, nil)
	q.pendE = append(q.pendE, nil)
	q.consumed = append(q.consumed, 0)
	q.open = append(q.open, true)
	q.charged = append(q.charged, 0)
	q.cuts = append(q.cuts[:q.n], 0)
	q.n++
	q.opened++
	if len(elems) == 0 {
		q.starved++
	}
	return q.n - 1
}

// Append feeds more keys to open run i as a new chunk. They must order
// at or after everything previously appended to that run. The queue
// takes ownership of the slices (no copy); fully drained chunks drop out
// of its reach, so a streaming run's live memory stays proportional to
// its unmerged window, not its total volume.
func (q *RunQueue[E]) Append(i int, cs []codes.Code, elems []E) {
	if !q.open[i] {
		panic("merge: Append to closed run")
	}
	if q.pl.coded && len(cs) != len(elems) {
		panic("merge: RunQueue.Append code/element length mismatch")
	}
	if len(elems) == 0 {
		return
	}
	if q.bud != nil {
		b := int64(len(elems)) * q.pl.elemBytes()
		q.bud.Acquire(b)
		q.charged[i] += b
	}
	if q.pos[i] < len(q.elems[i]) {
		q.pendC[i] = append(q.pendC[i], cs)
		q.pendE[i] = append(q.pendE[i], elems)
		return
	}
	q.starved--
	q.codes[i], q.elems[i], q.pos[i] = cs, elems, 0
}

// CloseRun seals run i: no further Append may follow, and once its
// buffer drains the run is exhausted rather than starved.
func (q *RunQueue[E]) CloseRun(i int) {
	if !q.open[i] {
		return
	}
	q.open[i] = false
	q.opened--
	if q.pos[i] >= len(q.elems[i]) {
		q.starved--
	}
}

// Open returns the number of runs that may still receive Append.
func (q *RunQueue[E]) Open() int { return q.opened }

// Consumed returns the number of keys emitted from run i so far.
func (q *RunQueue[E]) Consumed(i int) int64 {
	q.settle()
	return q.consumed[i]
}

// Exhausted reports whether every run is closed and fully emitted.
func (q *RunQueue[E]) Exhausted() bool {
	for i := 0; i < q.n; i++ {
		if q.open[i] || q.pos[i] < len(q.elems[i]) {
			return false
		}
	}
	return true
}

// Rest removes and returns every run's unconsumed elements and (off the
// comparator plane) their parallel codes, one slice pair per run in
// run-index order — the hand-off that lets the streaming drain finish
// with a parallel merge (RunsCoded). Every run must be closed.
// Single-chunk tails alias the queue's buffers; multi-chunk tails are
// concatenated. The keys count as consumed and the queue is left
// exhausted.
func (q *RunQueue[E]) Rest() ([][]E, [][]codes.Code) {
	q.settle()
	elems := make([][]E, q.n)
	var cs [][]codes.Code
	if q.pl.coded {
		cs = make([][]codes.Code, q.n)
	}
	for i := 0; i < q.n; i++ {
		if q.open[i] {
			panic("merge: Rest with open run")
		}
		elems[i] = joined(q.elems[i][q.pos[i]:], q.pendE[i])
		if cs != nil {
			cs[i] = joined(q.codes[i][q.pos[i]:], q.pendC[i])
			q.codes[i], q.pendC[i] = nil, nil
		}
		q.consumed[i] += int64(len(elems[i]))
		q.release(i, len(elems[i]))
		q.elems[i], q.pendE[i], q.pos[i] = nil, nil, 0
	}
	return elems, cs
}

// joined returns a run's current tail followed by its queued chunks.
func joined[T any](cur []T, pend [][]T) []T {
	if len(pend) == 0 {
		return cur
	}
	return slices.Concat(append([][]T{cur}, pend...)...)
}

// DrainReady appends every key that is safe to emit to dst, batch by
// batch through the kernel, and returns the extended slice; it emits
// nothing while an open run is starved. Consumed(i) advances by run i's
// share of each batch.
func (q *RunQueue[E]) DrainReady(dst []E) []E {
	q.settle()
	for q.starved == 0 {
		n, r := q.size(0)
		if n == 0 {
			break
		}
		dst = q.emit(dst, nil, n, r)
		q.commit()
	}
	return dst
}

// DrainClosed appends everything still buffered to dst once every run
// is closed, split at sub-splitters and merged one key range per core
// when the pool has more than one worker (see RunsCoded; byte-identical
// to DrainReady). Under a budget it stays serial: DrainReady's batches
// are the ones clipped to fit.
func (q *RunQueue[E]) DrainClosed(dst []E, p *par.Pool) []E {
	if q.bud != nil || q.Exhausted() {
		return q.DrainReady(dst)
	}
	elems, cs := q.Rest()
	return RunsCoded(dst, elems, cs, q.pl.tie, p, &q.sc)
}

// NextReady returns the next merged key if emission is safe: no open run
// is starved. ok=false means blocked or exhausted; distinguish with
// Exhausted.
func (q *RunQueue[E]) NextReady() (E, bool) { return q.pop(true) }

// Next returns the smallest buffered key without the starvation guard —
// the per-key drain for a queue whose runs are all closed. ok=false
// means every buffer is drained.
func (q *RunQueue[E]) Next() (E, bool) { return q.pop(false) }

// pop serves the per-key interface from a staged batch of at most
// stageKeys keys. (The stage is the caller's convenience and is not
// charged to the budget; the production drains use DrainReady.)
func (q *RunQueue[E]) pop(guard bool) (e E, ok bool) {
	if len(q.stage) == 0 {
		if guard && q.starved > 0 {
			return e, false
		}
		n, r := q.size(stageKeys)
		if n == 0 {
			return e, false
		}
		if q.pl.coded && !q.pl.pure {
			q.stageC = grown(q.stageC, n)
		}
		q.stage = q.emit(q.stage, q.stageC, n, r)
	}
	e = q.stage[q.next]
	if q.next++; q.next == len(q.stage) {
		q.settle()
	}
	return e, true
}

// settle brings the runs up to date with the per-key pops: the staged
// batch's popped keys are consumed, the rest of it is dropped and will
// be merged again.
func (q *RunQueue[E]) settle() {
	if len(q.stage) == 0 {
		return
	}
	if q.next < len(q.stage) {
		q.unpop()
	}
	q.commit()
	clear(q.stage)
	q.stage, q.next = q.stage[:0], 0
}

// unpop shrinks q.cuts from the staged batch to the part of it already
// popped. With y the first key not popped, that part is, per run, the
// staged keys ordering before y plus — the merge being stable — run by
// run in index order those equal to y, until the popped count is met.
func (q *RunQueue[E]) unpop() {
	y := bound[E]{elem: q.stage[q.next]}
	switch {
	case q.pl.pure:
		y.code = any(q.stage).([]codes.Code)[q.next]
	case q.pl.coded:
		y.code = q.stageC[q.next]
	}
	equal := q.next // popped keys that equal y
	for i := 0; i < q.n; i++ {
		equal -= q.before(i, q.pos[i]+q.cuts[i], &y, false) - q.pos[i]
	}
	for i := 0; i < q.n; i++ {
		lt := q.before(i, q.pos[i]+q.cuts[i], &y, false) - q.pos[i]
		le := q.before(i, q.pos[i]+q.cuts[i], &y, true) - q.pos[i]
		take := min(le-lt, equal)
		q.cuts[i], equal = lt+take, equal-take
	}
}

// commit advances every run past its share of the batch in q.cuts.
func (q *RunQueue[E]) commit() {
	for i, c := range q.cuts[:q.n] {
		if c == 0 {
			continue
		}
		q.pos[i] += c
		q.consumed[i] += int64(c)
		q.release(i, c)
		if q.pos[i] < len(q.elems[i]) {
			continue
		}
		if pend := q.pendE[i]; len(pend) > 0 {
			// Move on to the next queued chunk; the drained one drops
			// out of reach.
			q.elems[i], pend[0], q.pendE[i], q.pos[i] = pend[0], nil, pend[1:], 0
			if pc := q.pendC[i]; q.pl.coded {
				q.codes[i], pc[0], q.pendC[i] = pc[0], nil, pc[1:]
			}
		} else if q.open[i] {
			q.starved++
		}
	}
}

// release returns the charge of n consumed keys of run i to the budget.
// A run's chunks are either all charged or, the caller's own, none.
func (q *RunQueue[E]) release(i, n int) {
	if b := min(int64(n)*q.pl.elemBytes(), q.charged[i]); b > 0 {
		q.bud.Release(b)
		q.charged[i] -= b
	}
}

// bound is a batch's safe bound: run i may emit the keys ordering
// before (code, elem) and, when i <= run, those equal to it.
type bound[E any] struct {
	code codes.Code
	elem E
	run  int
}

func (q *RunQueue[E]) boundAt(i, at int) (b bound[E]) {
	b.elem, b.run = q.elems[i][at], i
	if q.pl.coded {
		b.code = q.codes[i][at]
	}
	return b
}

// order compares the key at index at of run i's current chunk with the
// bound's, by code and then by the tie comparator.
func (q *RunQueue[E]) order(i, at int, b *bound[E]) int {
	if q.pl.coded {
		if c := q.codes[i][at]; c != b.code {
			return codes.Compare(c, b.code)
		}
		if q.pl.tie == nil {
			return 0
		}
	}
	return q.pl.tie(q.elems[i][at], b.elem)
}

// before returns the first index in [pos, hi) of run i's current chunk
// whose key does not order before b's — or, with orEqual, neither before
// nor equal to it.
func (q *RunQueue[E]) before(i, hi int, b *bound[E], orEqual bool) int {
	lo := q.pos[i]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o := q.order(i, mid, b); o < 0 || (o == 0 && orEqual) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ready sizes the next batch into q.cuts — how many keys each run's
// current chunk contributes — and returns their total and how many runs
// contribute. A run limits the batch when something may still follow
// what it contributes: it is open, it has further chunks queued, or its
// contribution is capped at per keys (per > 0; any lower bound is as
// safe as the true one). The bound is the smallest (last contributable
// key, run index) over the limiting runs; with none, every buffered key
// is ready.
func (q *RunQueue[E]) ready(per int) (n, r int) {
	var b bound[E]
	bounded := false
	for i := 0; i < q.n; i++ {
		end := len(q.elems[i])
		if end == q.pos[i] {
			continue
		}
		capped := per > 0 && end-q.pos[i] > per
		if capped {
			end = q.pos[i] + per
		}
		if (capped || q.open[i] || len(q.pendE[i]) > 0) && (!bounded || q.order(i, end-1, &b) < 0) {
			b, bounded = q.boundAt(i, end-1), true
		}
	}
	for i := 0; i < q.n; i++ {
		c := len(q.elems[i]) - q.pos[i]
		if bounded {
			c = q.before(i, len(q.elems[i]), &b, i <= b.run) - q.pos[i]
		}
		if per > 0 {
			// Only the bounding run can overshoot (a span of keys equal
			// to the bound); its surplus is the batch's tail, so cutting
			// it keeps the batch a prefix of the merge.
			c = min(c, per)
		}
		q.cuts[i] = c
		n += c
		if c > 0 {
			r++
		}
	}
	return n, r
}

// size sizes the next batch of at most limit keys (0: no limit) and
// clips it under a budget: when the kernel's scratch for it would not
// fit, to the keys whose scratch does, and when not even one key per run
// fits, to the scratch-free floor — the single smallest buffered key.
func (q *RunQueue[E]) size(limit int) (n, r int) {
	per := 0
	if limit > 0 {
		per = max(1, limit/max(1, q.n))
	}
	n, r = q.ready(per)
	if q.bud == nil || n == 0 {
		return n, r
	}
	room, need := max(q.bud.Room(), 0), q.pl.scratchBytes(n, r)
	if need <= room {
		return n, r
	}
	if fit := int(room / (need / int64(n))); fit >= r {
		if per == 0 || fit/r < per {
			per = fit / r
		}
		return q.ready(per)
	}
	first := -1
	for i := 0; i < q.n; i++ {
		if q.pos[i] < len(q.elems[i]) {
			if b := q.boundAt(i, q.pos[i]); first < 0 || q.order(first, q.pos[first], &b) > 0 {
				first = i
			}
		}
	}
	clear(q.cuts[:q.n])
	q.cuts[first] = 1
	return 1, 1
}

// emit merges the batch q.cuts describes (n keys from r runs) onto dst,
// charging the kernel's scratch to the budget while it runs. outC, when
// non-nil, receives the merged keys' codes.
func (q *RunQueue[E]) emit(dst []E, outC []codes.Code, n, r int) []E {
	if q.bud != nil {
		b := q.pl.scratchBytes(n, r)
		q.bud.Acquire(b)
		defer q.bud.Release(b)
	}
	q.batchE, q.batchC = q.batchE[:0], q.batchC[:0]
	for i := 0; i < q.n; i++ {
		q.batchE = append(q.batchE, q.elems[i][q.pos[i]:q.pos[i]+q.cuts[i]])
		if q.pl.coded {
			q.batchC = append(q.batchC, q.codes[i][q.pos[i]:q.pos[i]+q.cuts[i]])
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	var batchC [][]codes.Code
	if q.pl.coded {
		batchC = q.batchC
	}
	mergeInto(dst[base:], outC, q.batchE, batchC, q.pl.tie, &q.sc)
	return dst
}
