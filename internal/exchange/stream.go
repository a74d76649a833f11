package exchange

import (
	"fmt"
	"time"

	"hssort/internal/comm"
	"hssort/internal/merge"
	"hssort/internal/par"
	"hssort/internal/spill"
)

// Streaming-exchange defaults.
const (
	// DefaultChunkKeys is the default chunk size (keys per message) of
	// the streaming exchange: large enough to amortize per-message
	// overhead, small enough that several chunks per peer fit in the
	// in-flight budget.
	DefaultChunkKeys = 64 * 1024
	// DefaultStreamWindow is the default flow-control window: how many
	// chunks a sender may have outstanding (sent but not yet merged by
	// the receiver) per destination. Window ≥ 2 keeps the pipe full —
	// one chunk in transit while the previous one merges.
	DefaultStreamWindow = 2
)

// StreamOptions configures the streaming exchange.
type StreamOptions struct {
	// ChunkKeys is the number of keys per chunk message. <= 0 selects
	// DefaultChunkKeys. (ExchangeMerge instead treats 0 without a Spill
	// manager as "use the materializing path".)
	ChunkKeys int
	// Window is the per-destination flow-control window in chunks;
	// <= 0 selects DefaultStreamWindow. Peak in-flight data per rank is
	// bounded by (p-1)·Window·ChunkKeys keys.
	Window int
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
	// incremental merge charges each batch's scratch to the same budget
	// and clips a batch that would not fit. Spilled data re-enters the
	// merge through spill.RunReader frames, so output is identical with or
	// without a budget. Requires K to be plain data (spill.Spillable).
	Spill *spill.Manager
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.ChunkKeys <= 0 {
		o.ChunkKeys = DefaultChunkKeys
	}
	if o.Window <= 0 {
		o.Window = DefaultStreamWindow
	}
	return o
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
	// it by (p-1)·Window·ChunkKeys·sizeof(K).
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
// incremental merge (run queue, batch scratch), the materializing
// merge's scratch and the chunk-routing queues the streaming path
// rebuilds every call. A long-lived engine (hssort.Sorter) keeps one
// Scratch per rank and passes it to every ExchangeMerge, turning the
// per-sort allocation churn of either plane into steady-state reuse. The
// zero value is ready; nil is accepted everywhere and means "allocate
// per call".
//
// A Scratch belongs to one rank: it must not be shared between
// concurrently running ranks, and the caller must not start a second
// exchange with the same Scratch before the first returns.
type Scratch[K any] struct {
	merge         merge.Scratch[K] // the materializing path's merge
	streamer      *merge.Streamer[K]
	streamerCoded bool // streamer was built with a code extractor
	streamerTie   bool // streamer resolves code ties with the comparator
	chunksTo      [][]chunk[K]
	totalTo       []int64
	outs          []outStream
	ins           []inStream[K]
}

// MergeScratch returns the kernel scratch for materialized merges made
// on this rank between exchanges (ExchangeMerge's own, nodesort's
// combine); nil-safe (a nil Scratch allocates per call).
func (sc *Scratch[K]) MergeScratch() *merge.Scratch[K] {
	if sc == nil {
		return nil
	}
	return &sc.merge
}

// streamerFor returns the incremental merge matching the requested
// plane — the cached one, reset and emptied of any references to a
// previous sort's data, or with a nil Scratch a fresh one.
func (sc *Scratch[K]) streamerFor(cmp func(K, K) int, code func(K) uint64, tie bool) *merge.Streamer[K] {
	if sc == nil {
		return merge.NewStreamerTie(cmp, code, tie)
	}
	coded := code != nil
	tie = tie && coded
	if sc.streamer == nil || sc.streamerCoded != coded || sc.streamerTie != tie {
		sc.streamer = merge.NewStreamerTie(cmp, code, tie)
		sc.streamerCoded = coded
		sc.streamerTie = tie
	}
	sc.streamer.Reset()
	return sc.streamer
}

// routing returns the per-destination routing state sized for p ranks,
// cleared of any references to a previous sort's key data.
func (sc *Scratch[K]) routing(p int) (chunksTo [][]chunk[K], totalTo []int64, outs []outStream, ins []inStream[K]) {
	if cap(sc.chunksTo) < p {
		sc.chunksTo = make([][]chunk[K], p)
		sc.totalTo = make([]int64, p)
		sc.outs = make([]outStream, p)
		sc.ins = make([]inStream[K], p)
	}
	sc.chunksTo = sc.chunksTo[:p]
	sc.totalTo = sc.totalTo[:p]
	sc.outs = sc.outs[:p]
	sc.ins = sc.ins[:p]
	for d := range sc.chunksTo {
		q := sc.chunksTo[d]
		for i := range q {
			clear(q[i].runs)
			q[i].runs = q[i].runs[:0]
			q[i].keys = 0
		}
		sc.chunksTo[d] = q[:0]
	}
	clear(sc.totalTo)
	clear(sc.outs)
	for i := range sc.ins {
		sc.ins[i] = inStream[K]{bounds: sc.ins[i].bounds[:0]}
	}
	return sc.chunksTo, sc.totalTo, sc.outs, sc.ins
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
	if sc.streamer != nil {
		sc.streamer.Reset()
	}
	sc.merge.Clear()
	for d := range sc.chunksTo {
		q := sc.chunksTo[d]
		for i := range q {
			clear(q[i].runs)
		}
	}
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
	released int64               // keys whose budget charge has been returned
	charged  int64               // bytes currently charged against the budget
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
// It returns the merged partition directly.
//
// The output is rank-identical to merge.KWay over Exchange's result:
// each sender's chunks arrive in bucket-major order, so per-sender
// streams are sorted, and duplicate keys — which always land in the same
// bucket on every sender — tie-break by sender rank in both paths.
//
// Flow control: a sender may have at most Window un-acknowledged chunks
// per destination; the receiver grants a credit only after a chunk has
// fully passed through the merge. That bounds per-rank in-flight data
// (transport-buffered plus admitted-but-unmerged) by
// (p-1)·Window·ChunkKeys keys, the streaming path's memory budget.
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
func ExchangeStream[K any](e comm.StreamEndpoint, tag comm.Tag, runs [][]K, owner func(int) int, cmp func(K, K) int, code func(K) uint64, opt StreamOptions, sc *Scratch[K]) (out []K, st StreamStats, err error) {
	comm.RegisterWire[streamMsg[K]]() // wire transports decode by registered type
	opt = opt.withDefaults()
	p := e.Size()
	me := e.Rank()
	keySize := comm.SizeOf[K]()
	sp := opt.Spill
	var frameKeys int // keys per read-back frame of a diverted stream
	if sp != nil {
		frameKeys = sp.FrameKeys(keySize, p)
	}

	// Route each bucket run to its destination's chunk queue. Chunks are
	// zero-copy run views batched in bucket order: consecutive small
	// runs share one chunk up to ChunkKeys keys (so over-partitioned
	// configurations keep the materializing path's message count), and
	// a run larger than ChunkKeys spans several chunks. With a Scratch
	// the queues, flow-control state and run queue are reused.
	var (
		chunksTo [][]chunk[K]
		totalTo  []int64
		outs     []outStream
		ins      []inStream[K]
	)
	if sc != nil {
		chunksTo, totalTo, outs, ins = sc.routing(p)
	} else {
		chunksTo = make([][]chunk[K], p)
		totalTo = make([]int64, p)
		outs = make([]outStream, p)
		ins = make([]inStream[K], p)
	}
	// On any error, release the spill state an interrupted exchange left
	// open: in-progress divert writers (aborted, file deleted) and tail
	// readers (closed, file deleted). A clean exit has already nil'd all
	// of these. (A merge batch's scratch charge needs no cleanup: it is
	// taken and returned inside DrainReady.)
	defer func() {
		if err == nil {
			return
		}
		for i := range ins {
			if ins[i].w != nil {
				ins[i].w.Abort()
				ins[i].w = nil
			}
			if ins[i].tail != nil {
				ins[i].tail.Close()
				ins[i].tail = nil
			}
		}
	}()
	push := func(dst int, view []K) {
		q := chunksTo[dst]
		if n := len(q); n > 0 && q[n-1].keys+len(view) <= opt.ChunkKeys {
			q[n-1].runs = append(q[n-1].runs, view)
			q[n-1].keys += len(view)
		} else if n < cap(q) {
			// Resurrect a slot kept by the Scratch from a previous sort:
			// its runs array (cleared by routing) is the buffer being
			// reused.
			q = q[:n+1]
			q[n].runs = append(q[n].runs[:0], view)
			q[n].keys = len(view)
		} else {
			q = append(q, chunk[K]{runs: [][]K{view}, keys: len(view)})
		}
		chunksTo[dst] = q
	}
	for b, run := range runs {
		dst := owner(b)
		if dst < 0 || dst >= p {
			return nil, StreamStats{}, fmt.Errorf("exchange: owner(%d) = %d outside world size %d", b, dst, p)
		}
		totalTo[dst] += int64(len(run))
		for len(run) > 0 {
			c := min(opt.ChunkKeys, len(run))
			push(dst, run[:c])
			run = run[c:]
		}
	}

	// One merge stream per sender, admitted in rank order so run indices
	// — and with them duplicate-key tie-breaks — are deterministic. Own
	// data feeds its stream directly and closes it.
	lt := sc.streamerFor(cmp, code, opt.Tie)
	if sp != nil {
		lt.SetBudget(sp)
	}
	for r := 0; r < p; r++ {
		lt.AddRun(nil)
	}
	for _, c := range chunksTo[me] {
		for _, view := range c.runs {
			lt.Append(me, view)
		}
	}
	lt.CloseRun(me)

	if p == 1 {
		t0 := time.Now()
		out = lt.DrainReady(make([]K, 0, totalTo[me]))
		st.MergeTail = time.Since(t0)
		return out, st, nil
	}

	for d := range outs {
		outs[d].credits = opt.Window
	}
	sendsPending := p - 1
	openStreams := p - 1
	openTails := 0        // diverted streams still replaying from disk
	expect := totalTo[me] // final output size, once every stream has been seen
	unseen := p - 1       // streams whose first message is still to come
	admitted := int64(0)  // keys admitted across remote streams

	// handle folds one incoming protocol message into local state.
	handle := func(m comm.Message) error {
		sm, ok := m.Payload.(streamMsg[K])
		if !ok {
			return fmt.Errorf("exchange: stream payload type %T from rank %d", m.Payload, m.Src)
		}
		if sm.credit > 0 {
			outs[m.Src].credits += int(sm.credit)
			return nil
		}
		in := &ins[m.Src]
		if in.closed {
			return fmt.Errorf("exchange: chunk from rank %d after its last chunk", m.Src)
		}
		if !in.seen {
			// First message of the stream: it carries the sender's whole
			// contribution. Once every sender's is known the output is
			// sized, once — nothing has been emitted yet, because a
			// stream not yet seen starves the merge.
			in.seen = true
			expect += sm.total
			if unseen--; unseen == 0 {
				out = make([]K, 0, expect)
			}
		}
		if sm.keys > 0 {
			chunkBytes := int64(sm.keys) * keySize
			// Every remote stream still open or replaying from disk may
			// need one read-back frame resident, and by then the chunks
			// admitted before its divert can still fill the budget: admit
			// only what leaves room for all of those frames.
			tailBytes := int64(openStreams+openTails) * int64(frameKeys) * keySize
			if sp != nil && !in.diverted && sp.WouldExceed(chunkBytes+tailBytes) {
				// Budget exhausted: divert the rest of this stream to a
				// compressed run file. The divert is permanent so the
				// on-disk remainder stays contiguous and in order.
				w, werr := spill.NewWriter[K](sp, frameKeys)
				if werr != nil {
					return werr
				}
				in.w = w
				in.diverted = true
			}
			if in.diverted {
				for _, view := range sm.runs {
					if werr := in.w.WriteKeys(view); werr != nil {
						return werr
					}
				}
				// The chunk never occupies the merge, so its credit
				// comes back as soon as it is on disk — the run file is
				// the window. A last chunk needs no credit at all.
				if !sm.last {
					if serr := e.Send(m.Src, tag, streamMsg[K]{credit: 1}, MsgHeaderBytes); serr != nil {
						return fmt.Errorf("exchange: stream credit: %w", serr)
					}
				}
			} else {
				if sp != nil {
					sp.Acquire(chunkBytes)
					in.charged += chunkBytes
				}
				for _, view := range sm.runs {
					lt.Append(m.Src, view)
				}
				in.admitted += int64(sm.keys)
				in.bounds = append(in.bounds, in.admitted)
				admitted += int64(sm.keys)
				// Remote keys emitted so far = total emitted - own-stream
				// emissions, so buffered = admitted - that difference.
				buffered := (admitted - (int64(len(out)) - lt.Consumed(me))) * keySize
				if buffered > st.PeakInFlight {
					st.PeakInFlight = buffered
				}
			}
		}
		if sm.last {
			in.closed = true
			in.bounds = nil // the sender needs no further credits
			openStreams--
			if in.diverted {
				// The stream's merge run stays open: its remainder now
				// replays from the run file, refilled frame-at-a-time by
				// drain as the merge consumes it.
				run, ferr := in.w.Finish()
				in.w = nil
				if ferr != nil {
					return ferr
				}
				rd, rerr := run.Reader(true)
				if rerr != nil {
					run.Remove()
					return rerr
				}
				in.tail = rd
				openTails++
			} else {
				lt.CloseRun(m.Src)
			}
		}
		return nil
	}

	// trySend pushes at most one chunk to every destination with credit,
	// staggered like the materializing path so chunks interleave across
	// destinations instead of draining one peer at a time.
	trySend := func() (bool, error) {
		progress := false
		for i := 1; i < p; i++ {
			dst := (me + i) % p
			o := &outs[dst]
			if o.lastSent || o.credits == 0 {
				continue
			}
			q := chunksTo[dst]
			var msg streamMsg[K]
			bytes := int64(MsgHeaderBytes)
			if o.next < len(q) {
				c := q[o.next]
				o.next++
				msg = streamMsg[K]{runs: c.runs, keys: c.keys, total: totalTo[dst], last: o.next == len(q)}
				bytes += int64(len(c.runs))*RunHeaderBytes + int64(c.keys)*keySize
			} else {
				// Nothing for this destination: a single empty closure
				// message, which still pays the per-message overhead.
				msg = streamMsg[K]{last: true}
			}
			if err := e.Send(dst, tag, msg, bytes); err != nil {
				return false, fmt.Errorf("exchange: stream send: %w", err)
			}
			o.credits--
			st.ChunksSent++
			if msg.last {
				o.lastSent = true
				sendsPending--
			}
			progress = true
		}
		return progress, nil
	}

	// refillTails feeds every starved disk tail its next frame (the merge
	// has consumed everything the tail's stream appended), closing the
	// stream's merge run at the final marker — which also deletes the
	// run file, the steady-state cleanup.
	refillTails := func() (bool, error) {
		did := false
		for i := range ins {
			in := &ins[i]
			if in.tail == nil || lt.Consumed(i) < in.admitted {
				continue
			}
			keys, rerr := in.tail.NextChunk()
			if rerr != nil {
				return did, rerr
			}
			if keys == nil {
				in.tail = nil
				lt.CloseRun(i)
				openTails--
			} else {
				b := int64(len(keys)) * keySize
				sp.Acquire(b)
				in.charged += b
				lt.Append(i, keys)
				in.admitted += int64(len(keys))
				admitted += int64(len(keys))
			}
			did = true
		}
		return did, nil
	}

	// drain emits every safely mergeable key, then grants credits for
	// chunks that have fully passed through the merge of still-open
	// streams (a closed stream's sender has nothing left to send) and
	// returns the budget of fully consumed chunks.
	drain := func() (bool, error) {
		refilled := false
		if openTails > 0 {
			var rerr error
			if refilled, rerr = refillTails(); rerr != nil {
				return false, rerr
			}
		}
		t0 := time.Now()
		emitted := len(out)
		overlapped := openStreams > 0 || openTails > 0
		if !overlapped && opt.Pool.Workers() > 1 {
			// Every stream is closed and a worker pool is available:
			// merge the unconsumed tail one sub-range per core.
			// Byte-identical to the serial drain.
			out = lt.DrainClosed(out, opt.Pool)
		} else {
			out = lt.DrainReady(out)
		}
		if len(out) == emitted {
			return refilled, nil
		}
		if overlapped {
			st.Overlap += time.Since(t0)
		} else {
			st.MergeTail += time.Since(t0)
		}
		if sp != nil {
			for i := range ins {
				in := &ins[i]
				if c := lt.Consumed(i); c > in.released {
					if b := min((c-in.released)*keySize, in.charged); b > 0 {
						sp.Release(b)
						in.charged -= b
					}
					in.released = c
				}
			}
		}
		for i := 1; i < p; i++ {
			src := (me - i + p) % p
			in := &ins[src]
			var grant int32
			for len(in.bounds) > 0 && lt.Consumed(src) >= in.bounds[0] {
				in.bounds = in.bounds[1:]
				grant++
			}
			if grant > 0 {
				if err := e.Send(src, tag, streamMsg[K]{credit: grant}, MsgHeaderBytes); err != nil {
					return false, fmt.Errorf("exchange: stream credit: %w", err)
				}
			}
		}
		return true, nil
	}

	for {
		progress, err := trySend()
		if err != nil {
			return nil, st, err
		}
		for {
			m, ok, err := e.TryRecv(comm.AnySource, tag)
			if err != nil {
				return nil, st, fmt.Errorf("exchange: stream recv: %w", err)
			}
			if !ok {
				break
			}
			if err := handle(m); err != nil {
				return nil, st, err
			}
			progress = true
		}
		emitted, err := drain()
		if err != nil {
			return nil, st, err
		}
		progress = progress || emitted
		if sendsPending == 0 && openStreams == 0 && openTails == 0 && lt.Exhausted() {
			return out, st, nil
		}
		if !progress {
			// Out of local work: park until the next protocol event —
			// a chunk for a starved stream or a credit for a stalled
			// send, whichever peer delivers first. Liveness: a rank
			// blocks only while a peer still owes it a message, and
			// every owed message is eventually sendable because credits
			// are granted whenever merges progress.
			m, err := e.RecvAny(tag)
			if err != nil {
				return nil, st, fmt.Errorf("exchange: stream recv: %w", err)
			}
			if err := handle(m); err != nil {
				return nil, st, err
			}
		}
	}
}

// ExchangeMerge is the data-movement dispatcher for the sort pipelines:
// it routes runs to their owners and returns this rank's fully merged
// partition. Without a budget (opt.Spill nil) and with opt.ChunkKeys == 0
// it runs the materializing Exchange + merge; otherwise it runs the
// streaming pipeline (at DefaultChunkKeys when ChunkKeys is 0), whose
// divert is the one place exchange data reaches disk. code, when non-nil,
// selects the code-keyed merge on either path (see ExchangeStream). sc,
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
