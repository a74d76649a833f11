package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hssort"
	"hssort/internal/dist"
)

// opDeadline bounds every op: a hang becomes a failed op.
const opDeadline = 30 * time.Second

// runOpts is one run's settings.
type runOpts struct {
	seed        uint64
	seconds     float64
	trace       bool
	scale       int    // divides key counts; 1 in a measured run, 64 in the smoke test
	ops         int    // > 0: time exactly this many ops instead of measuring for seconds
	setupCycles int    // cold set-ups whose median is setup_s
	root        string // the checkout: module sources, and .bench_build for binaries
	tmp         string // this run's own directory: spill dirs, daemon logs
}

// done reports whether the timed ops are over after i of them: the fixed
// count is reached, the seconds are used up, or the run was interrupted.
func (o runOpts) done(ctx context.Context, i int, start time.Time) bool {
	if ctx.Err() != nil {
		return true
	}
	if o.ops > 0 {
		return i >= o.ops
	}
	return time.Since(start).Seconds() >= o.seconds
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	setups            int      // cold set-ups behind setup_s
	errs              []string // the first few failures, for the operator
	vals              values   // end-to-end metrics, or per-layer when tracing
	tracer            *tracer
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// workload is one fixed input shape of the ledger.
type workload struct {
	name string
	run  func(ctx context.Context, o runOpts) (*outcome, error)
}

// workloads is the ledger, in report order. The shapes are fixed: changing
// one starts a new baseline. BENCHMARK.json and the README say why each
// exists; in short, each makes a different layer dominate, so that a gain
// in one layer shows on one workload and must not show on the others.
var workloads = []workload{
	// The paper's Fig 6.1 regime: radix local sort and k-way merge are
	// ~90% of the time, splitter determination under 1%.
	engineWorkload{name: "data_bound", procs: 4, transport: hssort.TransportInproc, eps: 0.05,
		kind: dist.Uniform, keysPerRank: 1 << 20, sets: 3}.workload(),
	// Splitter rounds, collectives and a 65k-message all-to-all dominate;
	// six inputs, because the round count depends on the input.
	engineWorkload{name: "comm_bound", procs: 256, transport: hssort.TransportSim, eps: 0.02,
		kind: dist.PowerSkew, keysPerRank: 2000, sets: 6}.workload(),
	// 3/4 of the keys cross real sockets through the wire codec and merge
	// incrementally: exchange and merge in the form data_bound bypasses.
	engineWorkload{name: "tcp_stream", procs: 4, transport: hssort.TransportTCP, eps: 0.05, stream: true,
		kind: dist.Gaussian, keysPerRank: 512 << 10, sets: 3}.workload(),
	// Shards twice the memory budget: spill runs, their codec and
	// merge.FromSources, which no other workload touches.
	engineWorkload{name: "spill_2x", procs: 4, transport: hssort.TransportInproc, eps: 0.05, stream: true, spill2x: true,
		kind: dist.Zipfian, keysPerRank: 1 << 20, sets: 3}.workload(),
	// The daemon binary under two closed-loop clients: HTTP/JSON, scheduler,
	// engine pool and plan cache dominate, the sort is a few percent.
	{name: "service_mix", run: runService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineWorkload drives one warm hssort.Sorter[int64] in this process.
type engineWorkload struct {
	name        string
	procs       int
	transport   hssort.Transport
	eps         float64
	stream      bool
	spill2x     bool // MemoryBudget = half a shard's bytes
	kind        dist.Kind
	keysPerRank int
	sets        int // distinct inputs the timed ops cycle through
}

func (w engineWorkload) workload() workload {
	return workload{name: w.name, run: w.run}
}

func (w engineWorkload) keys(scale int) int { return max(16, w.keysPerRank/scale) }

func (w engineWorkload) config(o runOpts) hssort.Config {
	cfg := hssort.Config{Procs: w.procs, Epsilon: w.eps, Transport: w.transport, StreamExchange: w.stream}
	if w.spill2x {
		cfg.MemoryBudget = int64(w.keys(o.scale)) * 8 / 2
		cfg.SpillDir = filepath.Join(o.tmp, "spill")
	}
	return cfg
}

// inputSet is one generated input with the digest its sorted output must
// reproduce.
type inputSet struct {
	shards [][]int64
	want   digest
}

func (w engineWorkload) inputs(o runOpts) []inputSet {
	sets := make([]inputSet, w.sets)
	for i := range sets {
		sh := dist.Spec{Kind: w.kind}.Shards(w.keys(o.scale), w.procs, o.seed*1_000_003+uint64(i))
		sets[i] = inputSet{shards: sh, want: digestOf(sh, hashInt64)}
	}
	return sets
}

// opSample is one timed op.
type opSample struct {
	wall, cpu time.Duration
	traced    bool
	st        hssort.Stats
}

// engineRun is a warm engine with the buffer its inputs are copied into:
// Sort may reorder its input, so every op gets a fresh copy, made off the
// clock and without allocating (the harness must add no garbage to the
// engine's own).
type engineRun struct {
	s    *hssort.Sorter[int64]
	work [][]int64
	eps  float64
}

func newEngineRun(cfg hssort.Config, like [][]int64) (*engineRun, error) {
	s, err := hssort.New[int64](cfg)
	if err != nil {
		return nil, err
	}
	work := make([][]int64, len(like))
	for r := range work {
		work[r] = make([]int64, len(like[r]))
	}
	return &engineRun{s: s, work: work, eps: cfg.Epsilon}, nil
}

// sortOnce runs and verifies one op. The returned error is the op's
// failure (error, deadline, wrong output, imbalance above 1+eps).
func (e *engineRun) sortOnce(ctx context.Context, in inputSet, tr *tracer, op int) (opSample, float64, error) {
	for r := range in.shards {
		copy(e.work[r], in.shards[r])
	}
	opCtx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	id := tr.begin(0, "hssort", "Sorter.Sort", op, 0)
	cpu0, t0 := selfCPU(), time.Now()
	out, st, err := e.s.Sort(opCtx, e.work)
	smp := opSample{wall: time.Since(t0), cpu: selfCPU() - cpu0, traced: tr != nil, st: st}
	tr.end(id, map[string]float64{"rounds": float64(st.Rounds), "total_sample": float64(st.TotalSample), "bytes": float64(st.TotalBytes), "msgs": float64(st.TotalMsgs)})
	if err != nil {
		return smp, 0, err
	}
	imb, err := checkInt64(out, in.want, 1+e.eps)
	return smp, imb, err
}

func (w engineWorkload) run(ctx context.Context, o runOpts) (*outcome, error) {
	res := &outcome{vals: values{}, setups: o.setupCycles}
	if o.trace {
		res.tracer = newTracer(w.name)
	}
	sets := w.inputs(o)
	cfg := w.config(o)

	// Cold set-up: engine construction (transport mesh, worker world,
	// spill dirs), the first sort's lazy allocations, and teardown.
	var setup []float64
	for c := 0; c < o.setupCycles; c++ {
		t0 := time.Now()
		e, err := newEngineRun(cfg, sets[0].shards)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		_, _, err = e.sortOnce(ctx, sets[0], nil, -1)
		e.s.Close()
		if err != nil {
			return nil, fmt.Errorf("set-up sort: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	e, err := newEngineRun(cfg, sets[0].shards)
	if err != nil {
		return nil, err
	}
	defer e.s.Close()
	for _, in := range sets { // warm: caches fill, scratch reaches steady state
		if _, _, err := e.sortOnce(ctx, in, nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up sort: %w", err)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples, imbalance := w.timedOps(ctx, o, e, sets, res)
	runtime.ReadMemStats(&after)
	if len(samples) == 0 {
		return res, nil
	}

	var walls []float64
	var busy, cpu time.Duration
	for _, s := range samples {
		walls = append(walls, ms(s.wall))
		busy += s.wall
		cpu += s.cpu
	}
	keys := float64(len(samples)) * float64(sets[0].want.n)
	if !o.trace {
		res.vals = endToEndValues(setup, walls, keys, busy, cpu, imbalance)
		return res, nil
	}

	v := res.vals
	runLayer(v, samples, res)
	statsLayer(v, samples, len(sets), float64(sets[0].want.n))
	v["hssort.alloc_bytes_per_key"] = float64(after.TotalAlloc-before.TotalAlloc) / keys
	v["hssort.mallocs_per_kkey"] = float64(after.Mallocs-before.Mallocs) / (keys / 1e3)
	pin := probeInput{cfg: cfg, shards: sets[0].shards, want: sets[0].want, scale: o.scale}
	if w.spill2x { // the timed engine still owns cfg.SpillDir
		pin.cfg.SpillDir, pin.spillDir = filepath.Join(o.tmp, "spill-engine-probe"), filepath.Join(o.tmp, "spill-probe")
	}
	if err := runProbes(ctx, pin, res.tracer, v); err != nil {
		return nil, err
	}
	if w.spill2x {
		if err := w.spillSlowdown(ctx, o, sets, median(walls), v); err != nil {
			return nil, err
		}
	}
	if w.transport == hssort.TransportTCP {
		if err := probeCmdHssort(ctx, o, w, res.tracer, v); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEndValues derives the five end-to-end metrics: walls are the op
// times in ms, busy the time the system spent on the ops' keys, cpu what it
// burned meanwhile.
func endToEndValues(setup, walls []float64, keys float64, busy, cpu time.Duration, imbalance float64) values {
	return values{
		"setup_s":         median(setup),
		"op_ms_p50":       median(walls),
		"keys_per_s":      keys / busy.Seconds(),
		"cpu_ms_per_mkey": ms(cpu) / (keys / 1e6),
		"imbalance":       imbalance,
	}
}

// timedOps runs ops on the warm engine, cycling the input sets, until the
// run's seconds (or its fixed op count) are used up. In a traced run every
// second op records spans, so the run measures its own tracing overhead.
func (w engineWorkload) timedOps(ctx context.Context, o runOpts, e *engineRun, sets []inputSet, res *outcome) ([]opSample, float64) {
	var samples []opSample
	imbalance := 0.0
	start := time.Now()
	for i := 0; ; i++ {
		if o.done(ctx, i, start) {
			break
		}
		tr := res.tracer
		if i%2 == 1 {
			tr = nil
		}
		res.attempted++
		smp, imb, err := e.sortOnce(ctx, sets[i%len(sets)], tr, i)
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		samples = append(samples, smp)
		imbalance = max(imbalance, imb)
	}
	return samples, imbalance
}

// spillSlowdown sets spill.slowdown: the budgeted op time over the same
// configuration's op time with the budget off.
func (w engineWorkload) spillSlowdown(ctx context.Context, o runOpts, sets []inputSet, budgetedMs float64, v values) error {
	cfg := w.config(o)
	cfg.MemoryBudget, cfg.SpillDir = 0, ""
	e, err := newEngineRun(cfg, sets[0].shards)
	if err != nil {
		return err
	}
	defer e.s.Close()
	var walls []float64
	for i := 0; i < 1+2*len(sets); i++ {
		smp, _, err := e.sortOnce(ctx, sets[i%len(sets)], nil, -1)
		if err != nil {
			return fmt.Errorf("unbudgeted sort: %w", err)
		}
		if i > 0 { // the first one warms the engine
			walls = append(walls, ms(smp.wall))
		}
	}
	v["spill.slowdown"] = budgetedMs / median(walls)
	return nil
}

// runLayer fills the run.* metrics from the timed ops.
func runLayer(v values, samples []opSample, res *outcome) {
	var all, traced, untraced []float64
	for _, s := range samples {
		all = append(all, ms(s.wall))
		if s.traced {
			traced = append(traced, ms(s.wall))
		} else {
			untraced = append(untraced, ms(s.wall))
		}
	}
	v["run.samples"] = float64(len(samples))
	v["run.failed_share"] = float64(res.failed) / float64(max(1, res.attempted))
	v["run.op_ms_p75"] = quantile(all, 0.75)
	v["run.op_ms_max"] = quantile(all, 1)
	v["run.peak_rss_mb"] = peakRSSMB()
	if len(traced) > 0 && len(untraced) > 0 {
		v["run.trace_overhead_share"] = median(traced)/median(untraced) - 1
	}
}

// statsLayer fills the metrics read from hssort.Stats: times as the median
// over the timed ops, counts as the median over the first cycle of them (one
// op per input), so that a count repeats exactly at a fixed seed however
// many ops the run's seconds had room for. n is the keys per op.
func statsLayer(v values, samples []opSample, cycle int, n float64) {
	col := func(of []opSample, f func(hssort.Stats) float64) float64 {
		xs := make([]float64, len(of))
		for i, s := range of {
			xs[i] = f(s.st)
		}
		return median(xs)
	}
	first := samples[:min(cycle, len(samples))]
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = ms(s.wall - s.st.Total())
	}
	v["hssort.overhead_ms"] = median(walls)
	v["core.local_sort_ms"] = col(samples, func(s hssort.Stats) float64 { return ms(s.LocalSort) })
	v["core.splitter_ms"] = col(samples, func(s hssort.Stats) float64 { return ms(s.Splitter) })
	v["core.exchange_ms"] = col(samples, func(s hssort.Stats) float64 { return ms(s.Exchange) })
	v["core.merge_ms"] = col(samples, func(s hssort.Stats) float64 { return ms(s.Merge) })
	v["exchange.overlap_ms"] = col(samples, func(s hssort.Stats) float64 { return ms(s.ExchangeOverlap) })
	v["core.rounds"] = col(first, func(s hssort.Stats) float64 { return float64(s.Rounds) })
	v["core.total_sample"] = col(first, func(s hssort.Stats) float64 { return float64(s.TotalSample) })
	v["core.splitter_bytes"] = col(first, func(s hssort.Stats) float64 { return float64(s.SplitterBytes) })
	v["exchange.bytes"] = col(first, func(s hssort.Stats) float64 { return float64(s.ExchangeBytes) })
	v["exchange.peak_inflight_bytes"] = col(first, func(s hssort.Stats) float64 { return float64(s.PeakInFlightBytes) })
	v["comm.msgs"] = col(first, func(s hssort.Stats) float64 { return float64(s.TotalMsgs) })
	v["comm.bytes"] = col(first, func(s hssort.Stats) float64 { return float64(s.TotalBytes) })
	v["comm.bytes_per_key"] = v["comm.bytes"] / n
	v["spill.spilled_bytes"] = col(first, func(s hssort.Stats) float64 { return float64(s.SpilledBytes) })
	v["spill.reads"] = col(first, func(s hssort.Stats) float64 { return float64(s.SpillReads) })
	v["spill.peak_resident_bytes"] = col(first, func(s hssort.Stats) float64 { return float64(s.PeakResidentBytes) })
}
