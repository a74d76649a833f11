package exchange

import (
	"fmt"
	"time"

	"hssort/internal/comm"
	"hssort/internal/merge"
	"hssort/internal/par"
	"hssort/internal/spill"
)

// Streaming-exchange constants.
const (
	// DefaultChunkKeys is the default chunk size (keys per message) of
	// the streaming exchange: large enough to amortize per-message
	// overhead, small enough that several chunks per peer fit in the
	// in-flight budget.
	DefaultChunkKeys = 64 * 1024
	// DefaultStreamWindow is the flow-control window, fixed: how many
	// chunks a sender may have outstanding (sent but not yet merged by
	// the receiver) per destination. Two keep the pipe full — one chunk
	// in transit while the previous one merges.
	DefaultStreamWindow = 2
)

// StreamOptions configures the streaming exchange, whose flow-control
// window is fixed at 2 chunks per destination (DefaultStreamWindow).
type StreamOptions struct {
	// ChunkKeys is the number of keys per chunk message. <= 0 selects
	// DefaultChunkKeys. (ExchangeMerge instead treats 0 without a Spill
	// manager as "use the materializing path".)
	ChunkKeys int
	// Pool, when it has more than one worker, parallelizes the merge
	// work that is off the overlap path: the materializing path's k-way
	// merge and the streaming drain's tail both split at sub-splitters
	// and merge one range per core (merge.Runs). Output is identical
	// for any worker budget. nil runs everything serially.
	Pool *par.Pool
	// Tie marks the code extractor as a non-injective prefix (the byte-key
	// plane): the merges then resolve equal-code matches with the
	// comparator before the run-index tie-break. Requires code != nil;
	// ignored on the comparator plane.
	Tie bool
	// Spill, when non-nil, bounds the receive path's resident bytes by
	// the manager's memory budget: the streaming exchange diverts incoming
	// streams to compressed run files once admitting more chunks would
	// exceed the budget (ExchangeMerge always streams under a budget). The
	// incremental merge's run queue charges every admitted chunk and
	// read-back frame, and each batch's scratch, to the same budget and
	// clips a batch that would not fit. Spilled data re-enters the merge
	// through spill.RunReader frames, so output is identical with or
	// without a budget. Requires K to be plain data (spill.Spillable).
	Spill *spill.Manager
}

// StreamStats reports one rank's streaming-exchange behaviour.
type StreamStats struct {
	// Overlap is merge time hidden inside the exchange: time spent
	// emitting merged keys while at least one incoming stream was still
	// open. The §6.2 overlap discussion assumes exactly this work moves
	// off the critical path.
	Overlap time.Duration
	// MergeTail is merge time after the last incoming chunk arrived —
	// the only merge work a perfect overlap cannot hide.
	MergeTail time.Duration
	// PeakInFlight is the peak number of payload bytes admitted to the
	// incremental merge but not yet emitted. The credit protocol bounds
	// it by (p-1)·DefaultStreamWindow·ChunkKeys·sizeof(K).
	PeakInFlight int64
	// ChunksSent counts data messages (including empty closures) sent.
	ChunksSent int64
}

// streamMsg is one streaming-exchange message. credit > 0 marks a
// flow-control grant (runs nil); otherwise the message is a data chunk —
// up to ChunkKeys keys spread over one or more bucket-run views, in
// bucket order — with last marking the sender's final chunk for this
// receiver and total carrying the sender's whole payload size for this
// receiver (a capacity hint, set on every chunk of a stream).
type streamMsg[K any] struct {
	runs   [][]K
	keys   int
	total  int64
	last   bool
	credit int32
}

// chunk is one outgoing streaming-exchange unit: up to ChunkKeys keys
// spread over zero-copy bucket-run views.
type chunk[K any] struct {
	runs [][]K
	keys int
}

// Scratch holds one rank's reusable exchange state across sorts: the
// streaming exchange's stream (its incremental merge, chunk queues and
// flow-control state), the materializing merge's scratch and MergeHeld's
// output. A long-lived engine (hssort.Sorter) keeps one Scratch per rank
// and passes it to every ExchangeMerge, turning the per-sort allocation
// churn of either plane into steady-state reuse. The zero value is
// ready; nil is accepted everywhere and means a fresh zero Scratch per
// call.
//
// A Scratch belongs to one rank: it must not be shared between
// concurrently running ranks, and the caller must not start a second
// exchange with the same Scratch before the first returns.
type Scratch[K any] struct {
	merge  merge.Scratch[K] // the materializing path's merge
	held   []K              // MergeHeld's output
	stream stream[K]
}

// MergeScratch returns the kernel scratch for materialized merges made
// on this rank between exchanges (ExchangeMerge's own); nil-safe (a nil
// Scratch allocates per call).
func (sc *Scratch[K]) MergeScratch() *merge.Scratch[K] {
	if sc == nil {
		return nil
	}
	return &sc.merge
}

// MergeHeld is ExchangeMerge's materializing merge into the Scratch's
// held array, for keys a sort needs only until it ends (a two-level
// sort's level 1). The next MergeHeld overwrites them and Release clears
// them; a nil Scratch merges into a fresh array.
func (sc *Scratch[K]) MergeHeld(runs [][]K, cmp func(K, K) int, code func(K) uint64, tie bool, p *par.Pool) []K {
	if sc == nil {
		return merge.Runs([]K{}, runs, cmp, code, tie, p, nil)
	}
	sc.held = merge.Runs(sc.held[:0], runs, cmp, code, tie, p, &sc.merge)
	return sc.held
}

// Release drops the Scratch's references to the last sort's key data so
// a parked engine does not pin that input between calls; the arrays
// themselves stay allocated.
//
// It must only be called after EVERY rank of the exchange has returned
// (the engine calls it once the worker world joins): the outgoing chunk
// queues were sent to peers by reference, and a rank legitimately
// returns while its final chunks still sit unprocessed in a receiver's
// mailbox — clearing them any earlier would nil out views the receiver
// is about to merge.
func (sc *Scratch[K]) Release() {
	if sc.stream.lt != nil {
		sc.stream.lt.Reset()
	}
	sc.merge.Clear()
	clear(sc.held[:cap(sc.held)])
	sc.held = sc.held[:0]
	for _, q := range sc.stream.chunksTo {
		for i := range q {
			clear(q[i].runs)
		}
	}
}

// stream is one rank's side of one streaming exchange, its parts the
// methods route, send, receive and drain; its arrays and incremental
// merge are kept across exchanges.
type stream[K any] struct {
	e         comm.StreamEndpoint
	tag       comm.Tag
	opt       StreamOptions
	me        int
	frameKeys int // keys per read-back frame of a diverted stream

	lt    *merge.Streamer[K]
	coded bool // lt was built with a code extractor
	tie   bool // lt resolves code ties with the comparator

	chunksTo [][]chunk[K]
	totalTo  []int64
	outs     []outStream
	ins      []inStream[K]

	sendsPending int   // destinations still owed their last chunk
	unseen       int   // streams whose first message is still to come
	expect       int64 // final output size, once every stream has been seen
	admitted     int64 // keys admitted across remote streams
	out          []K
	st           StreamStats
}

// outStream tracks one destination of the sender half.
type outStream struct {
	next     int // next chunk index to send
	credits  int // flow-control window remaining
	lastSent bool
}

// inStream tracks one source of the receiver half. Under a memory
// budget a stream can be diverted: once admitting another chunk would
// exceed the budget, the rest of the stream is written to a compressed
// run file as it arrives (with credits granted immediately — disk is
// the window) and read back frame-at-a-time through tail once the
// sender closes the stream.
type inStream[K any] struct {
	seen     bool                // first data/closure message observed (expect accounted)
	closed   bool                // sender sent its last chunk
	diverted bool                // remainder of the stream goes to disk
	admitted int64               // cumulative keys appended to the merge
	bounds   []int64             // admitted counts at un-acked chunk ends
	w        *spill.Writer[K]    // open spill writer while diverted
	tail     *spill.RunReader[K] // read-back of the diverted remainder
}

// ExchangeStream routes runs[b] (this rank's keys for bucket b) to
// owner(b) like Exchange, but pipelines the data plane: each
// destination's payload is split into ChunkKeys-sized chunks sent
// interleaved across destinations, and received chunks feed an
// incremental k-way merge (merge.Streamer) that emits this rank's
// sorted partition while the tail of the exchange is still in flight.
// It returns the merged partition directly, freshly allocated.
//
// The output is rank-identical to merge.KWay over Exchange's result:
// each sender's chunks arrive in bucket-major order, so per-sender
// streams are sorted, and duplicate keys — which always land in the same
// bucket on every sender — tie-break by sender rank in both paths.
//
// Flow control: a sender may have at most 2 (DefaultStreamWindow)
// un-acknowledged chunks per destination; the receiver grants a credit
// only after a chunk has fully passed through the merge. That bounds
// per-rank in-flight data (transport-buffered plus admitted-but-unmerged)
// by (p-1)·2·ChunkKeys keys, the streaming path's memory budget.
// Credits share the data tag, so a rank out of local work can park in
// RecvAny and wake on whichever protocol event arrives first.
//
// Tag hygiene: a rank may return while late credit grants addressed to
// it are still queued (ranks do not wait to be acked for their final
// chunks), so the tag must not be reused for another protocol on the
// same endpoint — give every exchange its own tag, as the sort
// pipelines' per-phase tag layout already does.
//
// code, when non-nil, must be an order-preserving uint64 extractor for
// cmp; the incremental merge then runs on raw integer compares instead
// of comparator calls. When K is the code-point type itself the chunks
// alias straight into the merge — codes travel through the exchange and
// are never re-encoded.
func ExchangeStream[K any](e comm.StreamEndpoint, tag comm.Tag, runs [][]K, owner func(int) int, cmp func(K, K) int, code func(K) uint64, opt StreamOptions, sc *Scratch[K]) ([]K, StreamStats, error) {
	comm.RegisterWire[streamMsg[K]]() // wire transports decode by registered type
	if sc == nil {
		sc = &Scratch[K]{}
	}
	s := &sc.stream
	if err := s.route(e, tag, runs, owner, opt); err != nil {
		return nil, StreamStats{}, err
	}
	s.start(cmp, code)
	defer s.end()
	for {
		progress, err := s.send()
		if err != nil {
			return nil, s.st, err
		}
		for {
			m, ok, err := e.TryRecv(comm.AnySource, tag)
			if err != nil {
				return nil, s.st, fmt.Errorf("exchange: stream recv: %w", err)
			}
			if !ok {
				break
			}
			if err := s.receive(m); err != nil {
				return nil, s.st, err
			}
			progress = true
		}
		drained, err := s.drain()
		if err != nil {
			return nil, s.st, err
		}
		if s.sendsPending == 0 && s.lt.Exhausted() {
			return s.out, s.st, nil
		}
		if !progress && !drained {
			// Out of local work: park until the next protocol event —
			// a chunk for a starved stream or a credit for a stalled
			// send, whichever peer delivers first. Liveness: a rank
			// blocks only while a peer still owes it a message, and
			// every owed message is eventually sendable because credits
			// are granted whenever merges progress.
			m, err := e.RecvAny(tag)
			if err != nil {
				return nil, s.st, fmt.Errorf("exchange: stream recv: %w", err)
			}
			if err := s.receive(m); err != nil {
				return nil, s.st, err
			}
		}
	}
}

// route resets the stream for an exchange over e and cuts each bucket
// run into its destination's chunk queue: zero-copy run views batched
// in bucket order, consecutive small runs sharing one chunk up to
// ChunkKeys keys (so over-partitioned configurations keep the
// materializing path's message count) and a run larger than ChunkKeys
// spanning several.
func (s *stream[K]) route(e comm.StreamEndpoint, tag comm.Tag, runs [][]K, owner func(int) int, opt StreamOptions) error {
	if opt.ChunkKeys <= 0 {
		opt.ChunkKeys = DefaultChunkKeys
	}
	p := e.Size()
	s.e, s.tag, s.opt, s.me = e, tag, opt, e.Rank()
	if opt.Spill != nil {
		s.frameKeys = opt.Spill.FrameKeys(comm.SizeOf[K](), p)
	}
	if cap(s.chunksTo) < p {
		s.chunksTo = make([][]chunk[K], p)
		s.totalTo = make([]int64, p)
		s.outs = make([]outStream, p)
		s.ins = make([]inStream[K], p)
	}
	s.chunksTo, s.totalTo = s.chunksTo[:p], s.totalTo[:p]
	s.outs, s.ins = s.outs[:p], s.ins[:p]
	for d, q := range s.chunksTo {
		for i := range q {
			clear(q[i].runs)
		}
		s.chunksTo[d] = q[:0]
		s.totalTo[d] = 0
		s.outs[d] = outStream{credits: DefaultStreamWindow}
		s.ins[d] = inStream[K]{bounds: s.ins[d].bounds[:0]}
	}
	s.sendsPending, s.unseen, s.expect, s.admitted = p-1, p, 0, 0
	s.out, s.st = nil, StreamStats{}
	for b, run := range runs {
		dst := owner(b)
		if dst < 0 || dst >= p {
			return fmt.Errorf("exchange: owner(%d) = %d outside world size %d", b, dst, p)
		}
		s.totalTo[dst] += int64(len(run))
		for len(run) > 0 {
			c := min(opt.ChunkKeys, len(run))
			s.push(dst, run[:c])
			run = run[c:]
		}
	}
	return nil
}

// push adds view to dst's chunk queue, into the last chunk while that
// stays within ChunkKeys.
func (s *stream[K]) push(dst int, view []K) {
	q := s.chunksTo[dst]
	if n := len(q); n > 0 && q[n-1].keys+len(view) <= s.opt.ChunkKeys {
		q[n-1].runs = append(q[n-1].runs, view)
		q[n-1].keys += len(view)
	} else if n < cap(q) {
		// Resurrect a slot kept from a previous sort: its runs array
		// (cleared by route) is the buffer being reused.
		q = q[:n+1]
		q[n].runs = append(q[n].runs[:0], view)
		q[n].keys = len(view)
	} else {
		q = append(q, chunk[K]{runs: [][]K{view}, keys: len(view)})
	}
	s.chunksTo[dst] = q
}

// start readies the incremental merge: one run per sender, added in
// rank order so run indices — and with them duplicate-key tie-breaks —
// are deterministic. Own data feeds its run directly and closes it
// before the budget is set, so the run queue never charges it: it is
// the caller's memory.
func (s *stream[K]) start(cmp func(K, K) int, code func(K) uint64) {
	coded, tie := code != nil, s.opt.Tie && code != nil
	if s.lt == nil || s.coded != coded || s.tie != tie {
		s.lt, s.coded, s.tie = merge.NewStreamerTie(cmp, code, tie), coded, tie
	}
	s.lt.Reset()
	for range s.chunksTo {
		s.lt.AddRun(nil)
	}
	for _, c := range s.chunksTo[s.me] {
		for _, view := range c.runs {
			s.lt.Append(s.me, view)
		}
	}
	s.lt.CloseRun(s.me)
	if s.opt.Spill != nil {
		s.lt.SetBudget(s.opt.Spill)
	}
	s.see(s.totalTo[s.me])
}

// see accounts one stream's first message, whose total is the sender's
// whole contribution. Once all are seen the output is sized, before any
// key is emitted: a stream not yet seen starves the merge.
func (s *stream[K]) see(total int64) {
	s.expect += total
	if s.unseen--; s.unseen == 0 {
		s.out = make([]K, 0, s.expect)
	}
}

// send pushes at most one chunk to every destination with credit,
// staggered like the materializing path so chunks interleave across
// destinations instead of draining one peer at a time, and reports
// whether it sent anything.
func (s *stream[K]) send() (bool, error) {
	progress := false
	p := len(s.outs)
	for i := 1; i < p; i++ {
		dst := (s.me + i) % p
		o := &s.outs[dst]
		if o.lastSent || o.credits == 0 {
			continue
		}
		q := s.chunksTo[dst]
		var msg streamMsg[K]
		bytes := int64(MsgHeaderBytes)
		if o.next < len(q) {
			c := q[o.next]
			o.next++
			msg = streamMsg[K]{runs: c.runs, keys: c.keys, total: s.totalTo[dst], last: o.next == len(q)}
			bytes += int64(len(c.runs))*RunHeaderBytes + int64(c.keys)*comm.SizeOf[K]()
		} else {
			// Nothing for this destination: a single empty closure
			// message, which still pays the per-message overhead.
			msg = streamMsg[K]{last: true}
		}
		if err := s.e.Send(dst, s.tag, msg, bytes); err != nil {
			return false, fmt.Errorf("exchange: stream send: %w", err)
		}
		o.credits--
		s.st.ChunksSent++
		if msg.last {
			o.lastSent = true
			s.sendsPending--
		}
		progress = true
	}
	return progress, nil
}

// receive folds one incoming message into the stream: a credit widens
// its destination's window; a chunk is admitted to the merge or
// diverted to disk; a last chunk closes its stream.
func (s *stream[K]) receive(m comm.Message) error {
	sm, ok := m.Payload.(streamMsg[K])
	if !ok {
		return fmt.Errorf("exchange: stream payload type %T from rank %d", m.Payload, m.Src)
	}
	if sm.credit > 0 {
		s.outs[m.Src].credits += int(sm.credit)
		return nil
	}
	in := &s.ins[m.Src]
	if in.closed {
		return fmt.Errorf("exchange: chunk from rank %d after its last chunk", m.Src)
	}
	if !in.seen {
		in.seen = true
		s.see(sm.total)
	}
	if sm.keys > 0 {
		if err := s.admit(m.Src, in, sm); err != nil {
			return err
		}
	}
	if !sm.last {
		return nil
	}
	in.closed = true
	in.bounds = in.bounds[:0] // the sender needs no further credits
	if !in.diverted {
		s.lt.CloseRun(m.Src)
		return nil
	}
	// The stream's merge run stays open: its remainder now replays from
	// the run file, refilled frame-at-a-time by drain as the merge
	// consumes it.
	run, err := in.w.Finish()
	in.w = nil
	if err != nil {
		return err
	}
	if in.tail, err = run.Reader(true); err != nil {
		run.Remove()
		return err
	}
	return nil
}

// admit appends one chunk of stream src to the merge or, under a memory
// budget that admitting it would exceed, diverts the rest of the stream
// to a compressed run file. The divert is permanent, so the on-disk
// remainder stays contiguous and in order.
func (s *stream[K]) admit(src int, in *inStream[K], sm streamMsg[K]) error {
	// Every remote stream still open or replaying from disk — every open
	// merge run — may need one read-back frame resident, and by then the
	// chunks admitted before its divert can still fill the budget: admit
	// only what leaves room for all of those frames.
	if sp := s.opt.Spill; sp != nil && !in.diverted &&
		sp.WouldExceed(int64(sm.keys+s.lt.Open()*s.frameKeys)*comm.SizeOf[K]()) {
		w, err := spill.NewWriter[K](sp, s.frameKeys)
		if err != nil {
			return err
		}
		in.w, in.diverted = w, true
	}
	if in.diverted {
		for _, view := range sm.runs {
			if err := in.w.WriteKeys(view); err != nil {
				return err
			}
		}
		// The chunk never occupies the merge, so its credit comes back
		// as soon as it is on disk — the run file is the window. A last
		// chunk needs no credit at all.
		if sm.last {
			return nil
		}
		return s.grant(src, 1)
	}
	for _, view := range sm.runs {
		s.lt.Append(src, view)
	}
	in.admitted += int64(sm.keys)
	in.bounds = append(in.bounds, in.admitted)
	s.admitted += int64(sm.keys)
	// Remote keys emitted so far = total emitted - own-stream emissions,
	// so buffered = admitted - that difference.
	buffered := (s.admitted - (int64(len(s.out)) - s.lt.Consumed(s.me))) * comm.SizeOf[K]()
	s.st.PeakInFlight = max(s.st.PeakInFlight, buffered)
	return nil
}

// drain refills every starved diverted tail with its next frame, emits
// every safely mergeable key, then grants a credit for each chunk of a
// still-open stream that has fully passed through the merge (a closed
// stream's sender has nothing left to send). It reports whether it
// refilled or emitted anything.
func (s *stream[K]) drain() (bool, error) {
	refilled := false
	for i := range s.ins {
		if tail := s.ins[i].tail; tail != nil {
			n, err := s.lt.Refill(i, tail)
			if err != nil {
				return false, err
			}
			s.admitted += int64(n)
			refilled = refilled || n > 0
		}
	}
	t0 := time.Now()
	emitted := len(s.out)
	overlapped := s.lt.Open() > 0
	if !overlapped && s.opt.Pool.Workers() > 1 {
		// Every stream is closed and a worker pool is available: merge
		// the unconsumed tail one sub-range per core. Byte-identical to
		// the serial drain.
		s.out = s.lt.DrainClosed(s.out, s.opt.Pool)
	} else {
		s.out = s.lt.DrainReady(s.out)
	}
	if len(s.out) == emitted {
		return refilled, nil
	}
	if overlapped {
		s.st.Overlap += time.Since(t0)
	} else {
		s.st.MergeTail += time.Since(t0)
	}
	p := len(s.ins)
	for i := 1; i < p; i++ {
		src := (s.me - i + p) % p
		in := &s.ins[src]
		var grant int32
		for len(in.bounds) > 0 && s.lt.Consumed(src) >= in.bounds[0] {
			in.bounds = in.bounds[1:]
			grant++
		}
		if grant > 0 {
			if err := s.grant(src, grant); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// grant returns n credits to the sender of stream src.
func (s *stream[K]) grant(src int, n int32) error {
	if err := s.e.Send(src, s.tag, streamMsg[K]{credit: n}, MsgHeaderBytes); err != nil {
		return fmt.Errorf("exchange: stream credit: %w", err)
	}
	return nil
}

// end drops the exchange's output, now the caller's, and its spill
// state, aborting a divert writer or closing a tail reader — each
// deleting its file — that a failed exchange left open.
func (s *stream[K]) end() {
	s.out = nil
	for i := range s.ins {
		in := &s.ins[i]
		if in.w != nil {
			in.w.Abort()
			in.w = nil
		}
		if in.tail != nil {
			in.tail.Close()
			in.tail = nil
		}
	}
}

// ExchangeMerge is the data-movement dispatcher for the sort pipelines:
// it routes runs to their owners and returns this rank's fully merged
// partition. Without a budget (opt.Spill nil) and with opt.ChunkKeys == 0
// it runs the materializing Exchange + merge, whose output is freshly
// allocated (never sc's memory); otherwise it runs the streaming pipeline
// (at DefaultChunkKeys when ChunkKeys is 0), whose divert is the one
// place exchange data reaches disk. code, when non-nil, selects the
// code-keyed merge on either path (see ExchangeStream). sc,
// when non-nil, reuses that rank-private Scratch across calls (engine
// reuse: the streaming path's queues and run queue, either path's merge
// scratch). exchangeTime and mergeTime keep phase stats comparable across
// paths: under streaming, merge work hidden inside the exchange is
// charged to the exchange phase and only the unhidable tail
// (StreamStats.MergeTail) to the merge phase.
func ExchangeMerge[K any](e comm.StreamEndpoint, tag comm.Tag, runs [][]K, owner func(int) int, cmp func(K, K) int, code func(K) uint64, opt StreamOptions, sc *Scratch[K]) (out []K, exchangeTime, mergeTime time.Duration, st StreamStats, err error) {
	t0 := time.Now()
	if opt.ChunkKeys == 0 && opt.Spill == nil {
		recv, err := Exchange(e, tag, runs, owner)
		if err != nil {
			return nil, 0, 0, StreamStats{}, err
		}
		exchangeTime = time.Since(t0)
		t1 := time.Now()
		out = merge.Runs([]K{}, recv, cmp, code, opt.Tie, opt.Pool, sc.MergeScratch())
		return out, exchangeTime, time.Since(t1), StreamStats{}, nil
	}
	out, st, err = ExchangeStream(e, tag, runs, owner, cmp, code, opt, sc)
	if err != nil {
		return nil, 0, 0, st, err
	}
	total := time.Since(t0)
	return out, total - st.MergeTail, st.MergeTail, st, nil
}
