package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"hssort"
	"hssort/internal/bspmodel"
	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/keycoder"
	"hssort/internal/merge"
	"hssort/internal/par"
	"hssort/internal/sampling"
	"hssort/internal/spill"
)

// probeInput is what the per-layer probes replay: one input of the
// workload, on a world of the workload's size and transport.
type probeInput struct {
	// cfg is the workload's engine configuration: the engine probes build
	// their own engine from it, the communication probes a world of its
	// size and transport, the spill probes a manager of its budget.
	cfg      hssort.Config
	spillDir string // where the spill probes write, when cfg has a budget
	shards   [][]int64
	want     digest
	byteKeys [][]byte // service_mix only: one byte-string job's keys
	scale    int
}

// prober times calls into the layers' exported functions. Every call is a
// child span of one "probes" root; the metric is the median over the
// repetitions.
type prober struct {
	ctx  context.Context
	tr   *tracer
	root int
	err  error // the first failure of any probed call
}

func (p *prober) fail(layer, name string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s %s: %w", layer, name, err)
	}
}

// time runs fn at least 3 times and until 100 ms of calls (at most 40),
// prep before each off the clock, and returns the median call time.
func (p *prober) time(layer, name string, prep func(), fn func() error) time.Duration {
	var calls []float64
	var spent time.Duration
	for i := 0; i < 40 && (i < 3 || spent < 100*time.Millisecond) && p.err == nil && p.ctx.Err() == nil; i++ {
		if prep != nil {
			prep()
		}
		id := p.tr.begin(p.root, layer, name, i, 0)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		p.tr.end(id, nil)
		p.fail(layer, name, err)
		calls = append(calls, float64(d))
		spent += d
	}
	return time.Duration(median(calls))
}

// runProbes fills v with the per-layer metrics the probes measure.
func runProbes(ctx context.Context, pin probeInput, tr *tracer, v values) error {
	p := &prober{ctx: ctx, tr: tr}
	p.root = tr.begin(0, "benchmark", "probes", 0, 0)
	defer func() { tr.end(p.root, nil) }()

	probeHost(p, pin, v)
	plan := probeEngine(p, pin, v)
	if p.err != nil {
		return p.err
	}

	// What rank r holds after its local sort, and what it sends where:
	// the kernels and collectives below run on exactly these arrays.
	n := len(pin.shards[0])
	pool := par.New(runtime.GOMAXPROCS(0))
	splitters := codes.EncodeSlice(keycoder.Int64{}, plan.Splitters)
	sorted := make([][]codes.Code, pin.cfg.Procs)
	parts := make([][][]codes.Code, pin.cfg.Procs)
	recv0 := make([][]codes.Code, pin.cfg.Procs)
	for r, sh := range pin.shards {
		sorted[r] = codes.EncodeSlice(keycoder.Int64{}, sh)
		codes.Sort(sorted[r])
		parts[r] = exchange.PartitionByCode(sorted[r], sorted[r], splitters)
		recv0[r] = parts[r][0]
	}

	probeCodes(p, pin, v, sorted[0], splitters, pool)
	probeSampling(p, pin, v, sorted)
	probeMerge(p, v, recv0, pool)
	v["exchange.partition_mkeys_per_s"] = perSec(n, p.time("exchange", "PartitionByCode", nil, func() error {
		exchange.PartitionByCode(sorted[0], sorted[0], splitters)
		return nil
	}))
	probeComm(p, pin, v, sorted, parts)
	if pin.cfg.MemoryBudget > 0 {
		probeSpill(p, pin, v, sorted[0], pool)
	}
	if model := bspmodel.SampleSizeHSSConstant(pin.cfg.Procs, pin.cfg.Epsilon); model > 0 {
		v["bspmodel.sample_ratio"] = v["core.total_sample"] / model
	}
	rows := bspmodel.Table51(pin.cfg.Procs, float64(n), pin.cfg.Epsilon, 8)
	if model := rows[len(rows)-1].SampleBytes; model > 0 {
		v["bspmodel.splitter_bytes_ratio"] = v["core.splitter_bytes"] / model
	}
	return p.err
}

// hostSortRate is the plain single-threaded slices.Sort baseline on a fixed
// input, the normaliser -compare checks before it compares two ledgers.
func hostSortRate(scale int) float64 {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([]int64, max(1024, (1<<20)/scale))
	work := make([]int64, len(keys))
	for i := range keys {
		keys[i] = rng.Int64()
	}
	var rates []float64
	for i := 0; i < 5; i++ {
		copy(work, keys)
		t0 := time.Now()
		slices.Sort(work)
		rates = append(rates, perSec(len(work), time.Since(t0)))
	}
	return median(rates)
}

func probeHost(p *prober, pin probeInput, v values) {
	v["host.nproc"] = float64(runtime.NumCPU())
	id := p.tr.begin(p.root, "host", "slices.Sort baseline", 0, 0)
	v["host.slices_sort_mkeys_per_s"] = hostSortRate(pin.scale)
	p.tr.end(id, nil)
	// 64 MiB each way: several times any last-level cache this runs on.
	src, dst := make([]byte, (64<<20)/pin.scale), make([]byte, (64<<20)/pin.scale)
	d := p.time("host", "memcpy", nil, func() error { copy(dst, src); return nil })
	v["host.memcpy_gb_per_s"] = perSec(len(src), d) / 1e3
}

// probeEngine times the engine's lifecycle calls on an engine of its own
// and returns the plan whose splitters the kernel probes reuse.
func probeEngine(p *prober, pin probeInput, v values) *hssort.Plan[int64] {
	work := make([][]int64, len(pin.shards))
	fresh := func() {
		for r, sh := range pin.shards {
			work[r] = append(work[r][:0], sh...)
		}
	}
	fresh()
	id := p.tr.begin(p.root, "hssort", "New", 0, 0)
	t0 := time.Now()
	s, err := hssort.New[int64](pin.cfg)
	v["hssort.new_ms"] = ms(time.Since(t0))
	p.tr.end(id, nil)
	if err != nil {
		p.fail("hssort", "New", err)
		return nil
	}
	defer s.Close()
	id = p.tr.begin(p.root, "hssort", "first Sort", 0, 0)
	t0 = time.Now()
	out, _, err := s.Sort(p.ctx, work)
	v["hssort.first_sort_ms"] = ms(time.Since(t0))
	p.tr.end(id, nil)
	if err == nil {
		_, err = checkInt64(out, pin.want, 1+pin.cfg.Epsilon)
	}
	p.fail("hssort", "first Sort", err)

	var plan *hssort.Plan[int64]
	v["hssort.plan_ms"] = ms(p.time("hssort", "Sorter.Plan", nil, func() (err error) {
		plan, err = s.Plan(p.ctx, pin.shards)
		return err
	}))
	if p.err != nil {
		return nil
	}
	v["hssort.sort_with_plan_ms"] = ms(p.time("hssort", "Sorter.SortWithPlan", fresh, func() error {
		_, _, err := s.SortWithPlan(p.ctx, plan, work)
		return err
	}))
	return plan
}

func probeCodes(p *prober, pin probeInput, v values, sorted0, splitters []codes.Code, pool *par.Pool) {
	shard := pin.shards[0]
	n := len(shard)
	enc := make([]codes.Code, n)
	v["codes.encode_mkeys_per_s"] = perSec(n, p.time("codes", "EncodeInto", nil, func() error {
		enc = codes.EncodeInto(keycoder.Int64{}, shard, enc)
		return nil
	}))
	work := make([]codes.Code, n)
	unsorted := func() { copy(work, enc) }
	serial := p.time("codes", "Sort", unsorted, func() error { codes.Sort(work); return nil })
	parallel := p.time("codes", "SortPar", unsorted, func() error { codes.SortPar(work, pool); return nil })
	v["codes.sort_mkeys_per_s"] = perSec(n, serial)
	v["codes.sort_par_mkeys_per_s"] = perSec(n, parallel)
	if parallel > 0 {
		v["par.sort_speedup"] = float64(serial) / float64(parallel)
	}
	if c := pool.Counters(); c.Spawned > 0 {
		v["par.tasks_per_fork"] = float64(c.Tasks) / float64(c.Spawned)
	}
	v["codes.cuts_us"] = us(p.time("codes", "Cuts", nil, func() error { codes.Cuts(sorted0, splitters); return nil }))
	var buf []byte
	v["codes.delta_mb_per_s"] = perSec(8*n, p.time("codes", "DeltaAppend", nil, func() error {
		buf = codes.DeltaAppend(buf[:0], sorted0)
		return nil
	}))

	if pin.byteKeys == nil {
		return
	}
	// The prefix plane's two extra steps, on one byte-string job's keys.
	prefix := keycoder.Prefix{}.Code
	nb := len(pin.byteKeys)
	v["keycoder.prefix_mkeys_per_s"] = perSec(nb, p.time("keycoder", "Prefix.Code", nil, func() error {
		codes.Extract(pin.byteKeys, prefix)
		return nil
	}))
	var elems [][]byte
	var cs []codes.Code
	v["codes.tiebreak_mkeys_per_s"] = perSec(nb, p.time("codes", "TieBreak", func() {
		elems = slices.Clone(pin.byteKeys)
		cs = codes.SortByCode(elems, prefix)
	}, func() error {
		codes.TieBreak(cs, elems, bytes.Compare)
		return nil
	}))
}

// probeSampling times one histogramming round's pieces: the Bernoulli
// sample on rank 0, the local rank lookup of the gathered sample, and the
// central tracker update and scan over its exact global ranks.
func probeSampling(p *prober, pin probeInput, v values, sorted [][]codes.Code) {
	var total int64
	for _, s := range sorted {
		total += int64(len(s))
	}
	prob := min(1, 5*float64(pin.cfg.Procs)/float64(total)) // HSS draws 5 keys per bucket per round
	rng := rand.New(rand.NewPCG(1, 3))
	d := p.time("sampling", "Bernoulli", nil, func() error { sampling.Bernoulli(sorted[0], prob, rng); return nil })
	v["sampling.bernoulli_ns_per_key"] = float64(d) / float64(len(sorted[0]))

	var probes []codes.Code
	for _, s := range sorted {
		probes = append(probes, sampling.Bernoulli(s, prob, rng)...)
	}
	slices.Sort(probes)
	probes = slices.Compact(probes)
	if len(probes) == 0 {
		return
	}
	v["histogram.local_ranks_us"] = us(p.time("histogram", "LocalRanks", nil, func() error {
		histogram.LocalRanks(sorted[0], probes, codes.Compare)
		return nil
	}))
	ranks := make([]int64, len(probes))
	for _, s := range sorted {
		for i, r := range histogram.LocalRanks(s, probes, codes.Compare) {
			ranks[i] += r
		}
	}
	var tracker *histogram.Tracker[codes.Code]
	v["histogram.tracker_update_us"] = us(p.time("histogram", "Tracker.Update", func() {
		tracker = histogram.NewTracker(total, pin.cfg.Procs, pin.cfg.Epsilon, codes.Compare)
	}, func() error {
		tracker.Update(probes, ranks)
		return nil
	}))
	v["histogram.scan_us"] = us(p.time("histogram", "Scan", nil, func() error {
		_, err := histogram.Scan(probes, ranks, total, pin.cfg.Procs, pin.cfg.Epsilon, codes.Compare)
		return err
	}))
}

// chunkSource feeds one in-memory run to merge.FromSources a chunk at a
// time, so the probe times the merge without the spill files behind it.
type chunkSource struct {
	run   []codes.Code
	chunk int
}

func (s *chunkSource) NextChunk() ([]codes.Code, error) {
	n := min(s.chunk, len(s.run))
	if n == 0 {
		return nil, nil
	}
	c := s.run[:n]
	s.run = s.run[n:]
	return c, nil
}

// probeMerge times the four merge forms on the runs rank 0 receives.
func probeMerge(p *prober, v values, runs [][]codes.Code, pool *par.Pool) {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	v["merge.kway_mkeys_per_s"] = perSec(n, p.time("merge", "ParMergeByCode", nil, func() error {
		merge.ParMergeByCode(nil, runs, codes.ExtractCode, pool)
		return nil
	}))
	v["merge.cmp_kway_mkeys_per_s"] = perSec(n, p.time("merge", "KWay", nil, func() error {
		merge.KWay(runs, codes.Compare)
		return nil
	}))

	st := merge.NewStreamer(codes.Compare, codes.ExtractCode)
	out := make([]codes.Code, 0, n)
	chunk := exchange.DefaultChunkKeys
	v["merge.stream_mkeys_per_s"] = perSec(n, p.time("merge", "Streamer", st.Reset, func() error {
		out = out[:0]
		rest := slices.Clone(runs)
		for i, r := range rest {
			st.AddRun(nil)
			if len(r) == 0 {
				st.CloseRun(i)
			}
		}
		for pending := true; pending; {
			pending = false
			for i, r := range rest { // one chunk per run per sweep, as the exchange interleaves them
				if len(r) == 0 {
					continue
				}
				k := min(chunk, len(r))
				st.Append(i, r[:k])
				rest[i] = r[k:]
				if len(rest[i]) == 0 {
					st.CloseRun(i)
				}
				pending = pending || len(rest[i]) > 0
			}
			for k, ok := st.NextReady(); ok; k, ok = st.NextReady() {
				out = append(out, k)
			}
		}
		for k, ok := st.Next(); ok; k, ok = st.Next() {
			out = append(out, k)
		}
		if len(out) != n {
			return fmt.Errorf("streamer emitted %d of %d keys", len(out), n)
		}
		return nil
	}))

	srcs := make([]merge.Source[codes.Code], len(runs))
	v["merge.sources_mkeys_per_s"] = perSec(n, p.time("merge", "FromSources", func() {
		st.Reset()
		for i, r := range runs {
			srcs[i] = &chunkSource{run: r, chunk: chunk}
		}
	}, func() error {
		got, err := merge.FromSources(st, srcs, nil, out[:0], 8)
		if err == nil && len(got) != n {
			err = fmt.Errorf("FromSources emitted %d of %d keys", len(got), n)
		}
		return err
	}))
}

// newTransport builds a world of the workload's size and transport.
func (pin probeInput) newTransport() (comm.Transport, error) {
	switch pin.cfg.Transport {
	case hssort.TransportInproc:
		return comm.NewInprocTransport(pin.cfg.Procs), nil
	case hssort.TransportTCP:
		return comm.NewTCPLoopback(pin.cfg.Procs)
	default:
		return comm.NewSimTransport(pin.cfg.Procs), nil
	}
}

func closeTransport(t comm.Transport) {
	if c, ok := t.(io.Closer); ok {
		c.Close() // tears down sockets the benchmark only read from; nothing to flush
	}
}

// probeComm times the transport, the collectives, splitter determination
// and both exchange forms on a world shaped like the workload's.
func probeComm(p *prober, pin probeInput, v values, sorted [][]codes.Code, parts [][][]codes.Code) {
	const tag = comm.Tag(7000)
	v["comm.world_setup_ms"] = ms(p.time("comm", "world set-up", nil, func() error {
		t, err := pin.newTransport()
		if err != nil {
			return err
		}
		defer closeTransport(t)
		pool := comm.NewPool(pin.cfg.Procs, comm.WithTransport(t))
		defer pool.Close()
		return pool.Run(p.ctx, func(c *comm.Comm) error { return c.Barrier() })
	}))
	t, err := pin.newTransport()
	if err != nil {
		p.fail("comm", "world", err)
		return
	}
	defer closeTransport(t)
	world := comm.NewPool(pin.cfg.Procs, comm.WithTransport(t), comm.WithTimeout(opDeadline))
	defer world.Close()
	// spmd times one run of body on every rank; reps is how many times body
	// repeats the call inside the run, so tiny calls are not lost in the
	// fork and join.
	spmd := func(layer, name string, reps int, body func(c *comm.Comm, i int) error) time.Duration {
		d := p.time(layer, name, nil, func() error {
			return world.Run(p.ctx, func(c *comm.Comm) error {
				for i := 0; i < reps; i++ {
					if err := body(c, i); err != nil {
						return err
					}
				}
				return nil
			})
		})
		return d / time.Duration(reps)
	}

	if pin.cfg.Procs > 1 {
		v["comm.pingpong_us"] = us(spmd("comm", "ping-pong", 100, func(c *comm.Comm, _ int) error {
			switch c.Rank() {
			case 0:
				if err := comm.SendValue(c, 1, tag, int64(1)); err != nil {
					return err
				}
				_, err := comm.RecvValue[int64](c, 1, tag+1)
				return err
			case 1:
				if _, err := comm.RecvValue[int64](c, 0, tag); err != nil {
					return err
				}
				return comm.SendValue(c, 0, tag+1, int64(1))
			}
			return nil
		}))
		block := make([]int64, (1<<20)/8/min(pin.scale, 64))
		const blocks = 16
		d := spmd("comm", "stream", 1, func(c *comm.Comm, _ int) error {
			switch c.Rank() {
			case 0:
				for i := 0; i < blocks; i++ {
					if err := comm.SendSlice(c, 1, tag, block); err != nil {
						return err
					}
				}
				_, err := comm.RecvValue[int64](c, 1, tag+1)
				return err
			case 1:
				for i := 0; i < blocks; i++ {
					if _, err := comm.RecvSlice[int64](c, 0, tag); err != nil {
						return err
					}
				}
				return comm.SendValue(c, 0, tag+1, int64(1))
			}
			return nil
		})
		v["comm.stream_mb_per_s"] = perSec(blocks*8*len(block), d)
	}

	// The collectives at the sizes one histogramming round uses: a
	// bucket-length reduction, a 5-keys-per-bucket sample.
	counts := make([][]int64, pin.cfg.Procs) // one vector per rank: the reduction works in place
	for r := range counts {
		counts[r] = make([]int64, pin.cfg.Procs)
	}
	sample := make([]codes.Code, 5*pin.cfg.Procs)
	step := func(i int) comm.Tag { return tag + comm.Tag(4*i) } // a fresh tag range per repetition
	v["collective.allreduce_us"] = us(spmd("collective", "AllReduce", 10, func(c *comm.Comm, i int) error {
		_, err := collective.AllReduce(c, step(i), counts[c.Rank()], collective.SumInt64)
		return err
	}))
	v["collective.bcast_us"] = us(spmd("collective", "Bcast", 10, func(c *comm.Comm, i int) error {
		var data []codes.Code
		if c.Rank() == 0 {
			data = sample
		}
		_, err := collective.Bcast(c, 0, step(i), data)
		return err
	}))
	v["collective.gatherv_us"] = us(spmd("collective", "Gatherv", 10, func(c *comm.Comm, i int) error {
		_, err := collective.Gatherv(c, 0, step(i), sample[:5])
		return err
	}))
	v["collective.alltoallv_ms"] = ms(spmd("collective", "AllToAllv", 1, func(c *comm.Comm, _ int) error {
		_, err := collective.AllToAllv(c, tag, parts[c.Rank()])
		return err
	}))

	var total int64
	for _, s := range sorted {
		total += int64(len(s))
	}
	opts := core.Options[codes.Code]{Cmp: codes.Compare, Code: codes.ExtractCode, Epsilon: pin.cfg.Epsilon}
	v["core.determine_splitters_ms"] = ms(spmd("core", "DetermineSplitters", 1, func(c *comm.Comm, _ int) error {
		_, _, err := core.DetermineSplitters(c, sorted[c.Rank()], total, opts)
		return err
	}))

	owner := exchange.ContiguousOwner(pin.cfg.Procs, pin.cfg.Procs)
	workers := par.Default(pin.cfg.Procs)
	exchangeMerge := func(name string, chunkKeys int) time.Duration {
		return spmd("exchange", name, 1, func(c *comm.Comm, _ int) error {
			opt := exchange.StreamOptions{ChunkKeys: chunkKeys, Pool: par.New(workers)}
			_, _, _, _, err := exchange.ExchangeMerge(c, tag, parts[c.Rank()], owner, codes.Compare, codes.ExtractCode, opt, nil)
			return err
		})
	}
	v["exchange.materialize_ms"] = ms(exchangeMerge("ExchangeMerge materializing", 0))
	v["exchange.stream_ms"] = ms(exchangeMerge("ExchangeMerge streaming", exchange.DefaultChunkKeys))
}

// probeSpill times the out-of-core plane on rank 0's shard under the
// workload's budget: run write, run read-back, and the external local sort.
func probeSpill(p *prober, pin probeInput, v values, sorted0 []codes.Code, pool *par.Pool) {
	m, err := spill.NewManager(pin.cfg.MemoryBudget, pin.spillDir, 0)
	if err != nil {
		p.fail("spill", "NewManager", err)
		return
	}
	defer m.Close()
	n := len(sorted0)
	segments := int(max(1, int64(n)*8/(pin.cfg.MemoryBudget/2)))
	frameKeys := m.FrameKeys(8, segments)
	var run *spill.Run[codes.Code]
	drop := func() {
		if run != nil {
			run.Remove()
			run = nil
		}
	}
	write := func() error {
		w, err := spill.NewWriter[codes.Code](m, frameKeys)
		if err != nil {
			return err
		}
		if err := w.WriteKeys(sorted0); err != nil {
			w.Abort()
			return err
		}
		run, err = w.Finish()
		return err
	}
	v["spill.write_mb_per_s"] = perSec(8*n, p.time("spill", "Writer", drop, write))
	if p.err != nil {
		return
	}
	if fi, err := os.Stat(run.Path()); err == nil && fi.Size() > 0 {
		v["spill.compress_ratio"] = float64(8*n) / float64(fi.Size())
	}
	v["spill.read_mb_per_s"] = perSec(8*n, p.time("spill", "RunReader", func() {
		drop()
		p.fail("spill", "Writer", write())
	}, func() error {
		rd, err := run.Reader(true)
		if err != nil {
			return err
		}
		defer rd.Close()
		run = nil // the reader removes the file at its end
		for {
			chunk, err := rd.NextChunk()
			if err != nil || chunk == nil {
				return err
			}
		}
	}))
	drop()
	m.Reset()

	work := make([]codes.Code, n)
	unsorted := codes.EncodeSlice(keycoder.Int64{}, pin.shards[0])
	v["spill.local_sort_mkeys_per_s"] = perSec(n, p.time("spill", "LocalSort", func() { copy(work, unsorted) }, func() error {
		_, err := spill.LocalSort(m, work, codes.ExtractCode, codes.Compare, pool)
		return err
	}))
}
