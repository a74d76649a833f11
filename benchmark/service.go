package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hssort"
	"hssort/internal/dist"
)

// The daemon's shape is part of the workload: 4 shards per job, 2 jobs at a
// time (one per client), serial kernels.
var daemonArgs = []string{"-listen", "127.0.0.1:0", "-shards", "4", "-concurrency", "2", "-workers", "1"}

const (
	daemonShards    = 4
	daemonEps       = 0.05
	daemonStaleness = 1.5 // hssortd's default -staleness: a cached plan may skew a job this far before it replans
	int64JobKeys    = 100_000
	bytesJobKeys    = 20_000
	recurringBodies = 4
)

// daemon is one running hssortd.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	startup time.Duration // exec until /healthz answered ok
	waited  bool
}

// startDaemon execs bin and returns once /healthz answers. Its log goes to
// logPath.
func startDaemon(ctx context.Context, bin, logPath string) (*daemon, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, daemonArgs...)
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on ")
	if err != nil || !ok {
		d.kill()
		return nil, fmt.Errorf("hssortd did not announce its address (got %q, %v); see %s", line, err, logPath)
	}
	d.url = "http://" + addr
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > opDeadline || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("hssortd at %s never became healthy", d.url)
		}
		time.Sleep(time.Millisecond)
	}
	d.startup = time.Since(t0)
	return d, nil
}

// drain sends SIGTERM and waits for the daemon to finish its jobs and exit;
// an exit code other than 0, or no exit within the op deadline, is an error.
func (d *daemon) drain() (time.Duration, error) {
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	timer := time.AfterFunc(opDeadline, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	timer.Stop()
	d.waited = true
	if err != nil {
		return 0, fmt.Errorf("hssortd on SIGTERM: %w", err)
	}
	return time.Since(t0), nil
}

// kill ends the daemon on a failure path; it is a no-op after drain.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.waited = true
}

// cpu is the daemon's user+system CPU so far, from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in USER_HZ (100 on Linux) ticks.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// gauge reads one un-labelled value from the daemon's /metrics.
func (d *daemon) gauge(name string) (float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// jobKind is which of the mix's three job classes a job belongs to.
type jobKind int

const (
	kindRecurring jobKind = iota // fixed int64 bodies, plan-cache hits after the first cycle
	kindAdhoc                    // fresh int64 draws, plan-cache misses
	kindBytes                    // url-like byte strings, the prefix plane's second engine shape
)

// jobBody is one request, marshalled off the clock, with what its reply
// must reproduce.
type jobBody struct {
	kind jobKind
	body []byte
	keys int
	want digest
}

func int64Body(tenant string, kind jobKind, k dist.Kind, n int, seed uint64) jobBody {
	keys := dist.Spec{Kind: k}.Shard(n, 0, 1, seed)
	b := make([]byte, 0, 21*n+96)
	b = fmt.Appendf(b, `{"tenant":%q,"keyType":"int64","wait":true,"keys":[`, tenant)
	for i, key := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, key, 10)
	}
	b = append(b, "]}"...)
	return jobBody{kind: kind, body: b, keys: n, want: digestOf([][]int64{keys}, hashInt64)}
}

func bytesBody(tenant string, n int, seed uint64) jobBody {
	keys := dist.ByteSpec{Kind: dist.URLLike}.Shard(n, 0, 1, seed)
	b := make([]byte, 0, 64*n+96)
	b = fmt.Appendf(b, `{"tenant":%q,"keyType":"bytes","wait":true,"keys":[`, tenant)
	for i, key := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = base64.StdEncoding.AppendEncode(b, key)
		b = append(b, '"')
	}
	b = append(b, "]}"...)
	return jobBody{kind: kindBytes, body: b, keys: n, want: digestOf([][][]byte{keys}, hashBytes)}
}

// jobDoc is the part of hssortd's job document the benchmark reads.
type jobDoc[K any] struct {
	Status    string                `json:"status"`
	Error     string                `json:"error"`
	PlanCache string                `json:"planCache"`
	Stats     *hssort.StatsSnapshot `json:"stats"`
	Result    *struct {
		Shards [][]K `json:"shards"`
	} `json:"result"`
}

// jobSample is one answered job.
type jobSample struct {
	opSample
	kind     jobKind
	keys     int
	reqBytes int
	hit      bool
	imb      float64
}

// client is one closed-loop caller: it sends its next job only after the
// previous reply arrived (callers of a sort service wait for their output).
type client struct {
	lane int
	url  string
	http *http.Client
	next func(i int) jobBody
}

// submit posts one job and, off the latency clock, decodes and verifies the
// reply.
func (c *client) submit(ctx context.Context, job jobBody, tr *tracer, op int) (jobSample, error) {
	smp := jobSample{kind: job.kind, keys: job.keys, reqBytes: len(job.body)}
	opCtx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(opCtx, http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(job.body))
	if err != nil {
		return smp, err
	}
	id := tr.begin(0, "server", "POST /v1/jobs", op, c.lane)
	t0 := time.Now()
	resp, err := c.http.Do(req)
	var reply []byte
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	smp.wall = time.Since(t0)
	smp.traced = tr != nil
	tr.end(id, map[string]float64{"keys": float64(job.keys), "request_bytes": float64(len(job.body)), "reply_bytes": float64(len(reply))})
	if err != nil {
		return smp, err
	}
	if resp.StatusCode != http.StatusOK {
		return smp, fmt.Errorf("status %d: %.200s", resp.StatusCode, reply)
	}
	id = tr.begin(0, "benchmark", "decode+verify", op, c.lane)
	defer tr.end(id, nil)
	if job.kind == kindBytes {
		return verifyReply(smp, reply, job, checkBytes)
	}
	return verifyReply(smp, reply, job, checkInt64)
}

func verifyReply[K any](smp jobSample, reply []byte, job jobBody, check func([][]K, digest, float64) (float64, error)) (jobSample, error) {
	var doc jobDoc[K]
	if err := json.Unmarshal(reply, &doc); err != nil {
		return smp, fmt.Errorf("reply: %w", err)
	}
	if doc.Status != "done" || doc.Stats == nil || doc.Result == nil {
		return smp, fmt.Errorf("job ended %q: %s", doc.Status, doc.Error)
	}
	smp.st = statsOf(*doc.Stats)
	smp.hit = doc.PlanCache == "hit"
	limit := 1 + daemonEps
	if smp.hit {
		limit = daemonStaleness
	}
	if job.kind == kindBytes {
		// Every url-like key shares its 8-byte prefix code, so code-space
		// splitters cannot separate them: one shard takes all (README,
		// first findings). The balance bound does not apply.
		limit = daemonShards
	}
	var err error
	smp.imb, err = check(doc.Result.Shards, job.want, limit)
	return smp, err
}

// statsOf rebuilds the Stats fields the per-layer metrics read.
func statsOf(s hssort.StatsSnapshot) hssort.Stats {
	return hssort.Stats{
		Rounds: s.Rounds, TotalSample: s.TotalSample,
		LocalSort: time.Duration(s.LocalSortNs), Splitter: time.Duration(s.SplitterNs),
		Exchange: time.Duration(s.ExchangeNs), Merge: time.Duration(s.MergeNs),
		ExchangeOverlap: time.Duration(s.ExchangeOverlapNs), PeakInFlightBytes: s.PeakInFlightBytes,
		SplitterBytes: s.SplitterBytes, ExchangeBytes: s.ExchangeBytes, TotalMsgs: s.TotalMsgs, TotalBytes: s.TotalBytes,
	}
}

func runService(ctx context.Context, o runOpts) (*outcome, error) {
	res := &outcome{vals: values{}, setups: o.setupCycles}
	if o.trace {
		res.tracer = newTracer("service_mix")
	}
	bin, err := buildTool(ctx, o.root, "hssortd")
	if err != nil {
		return nil, err
	}
	nInt, nBytes := max(64, int64JobKeys/o.scale), max(64, bytesJobKeys/o.scale)
	base := o.seed * 1_000_003
	recurring := make([]jobBody, recurringBodies)
	for i := range recurring {
		recurring[i] = int64Body("recurring", kindRecurring, dist.Gaussian, nInt, base+uint64(i))
	}
	adhocKinds := []dist.Kind{dist.Uniform, dist.PowerSkew, dist.Zipfian}
	adhoc := func(i int) jobBody {
		if i%4 == 3 {
			return bytesBody("adhoc", nBytes, base+1000+uint64(i))
		}
		return int64Body("adhoc", kindAdhoc, adhocKinds[i%4], nInt, base+1000+uint64(i))
	}
	firstBytes := bytesBody("adhoc", nBytes, base+999)

	// Cold set-up: exec until healthy, then the first job of each engine
	// shape (engines are built on first demand).
	var setup, drains []float64
	for c := 0; c < o.setupCycles; c++ {
		t0 := time.Now()
		d, err := startDaemon(ctx, bin, filepath.Join(o.tmp, "hssortd-setup.log"))
		if err != nil {
			return nil, err
		}
		cl := &client{url: d.url, http: &http.Client{}}
		for _, job := range []jobBody{recurring[0], firstBytes} {
			if _, err := cl.submit(ctx, job, nil, -1); err != nil {
				d.kill()
				return nil, fmt.Errorf("set-up job: %w", err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		cl.http.CloseIdleConnections()
		dt, err := d.drain()
		if err != nil {
			return nil, err
		}
		drains = append(drains, ms(dt))
	}

	d, err := startDaemon(ctx, bin, filepath.Join(o.tmp, "hssortd.log"))
	if err != nil {
		return nil, err
	}
	defer d.kill()
	clients := []*client{
		{lane: 0, url: d.url, http: &http.Client{}, next: func(i int) jobBody { return recurring[i%len(recurring)] }},
		{lane: 1, url: d.url, http: &http.Client{}, next: adhoc},
	}
	// Warm: the recurring bodies enter the plan cache and both engine
	// shapes get built.
	for i := 0; i < recurringBodies; i++ {
		for _, c := range clients {
			if _, err := c.submit(ctx, c.next(i), nil, -1); err != nil {
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
		}
	}

	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	perClient := make([][]jobSample, len(clients))
	var mu sync.Mutex // guards res across the two clients
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The adhoc client continues its sequence after the warm-up
			// jobs, so no timed adhoc job repeats a warm-up body.
			for i := recurringBodies; ; i++ {
				n := i - recurringBodies
				if o.done(ctx, n, start) {
					return
				}
				job := c.next(i) // generated and marshalled before the clock starts
				tr := res.tracer
				if n%2 == 1 {
					tr = nil
				}
				smp, err := c.submit(ctx, job, tr, n)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail(fmt.Errorf("client %d job %d: %w", ci, n, err))
				}
				mu.Unlock()
				if err == nil {
					perClient[ci] = append(perClient[ci], smp)
				}
			}
		}()
	}
	wg.Wait()
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	engines, err := d.gauge("hssortd_engines_built")
	if err != nil {
		return nil, err
	}
	shed, err := d.gauge("hssortd_rejected_total")
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
	// The drain is one more operation: a daemon that does not exit 0 on
	// SIGTERM failed it.
	res.attempted++
	drain, err := d.drain()
	if err != nil {
		res.fail(err)
	}

	var jobs []jobSample
	for _, js := range perClient {
		jobs = append(jobs, js...)
	}
	if len(jobs) == 0 {
		return res, nil
	}
	var walls []float64
	var busy time.Duration
	var keys, reqBytes, sortNs, rounds, hits float64
	imbalance := 0.0
	byKind := map[jobKind][]float64{}
	samples := make([]opSample, len(jobs))
	for i, j := range jobs {
		samples[i] = j.opSample
		walls = append(walls, ms(j.wall))
		byKind[j.kind] = append(byKind[j.kind], ms(j.wall))
		busy += j.wall
		keys += float64(j.keys)
		reqBytes += float64(j.reqBytes)
		sortNs += float64(j.st.Total())
		rounds += float64(j.st.Rounds)
		if j.hit {
			hits++
		}
		if j.kind != kindBytes {
			imbalance = max(imbalance, j.imb)
		}
	}
	// Two clients overlap, so the system was busy for the summed latency
	// divided by the client count.
	sortShare := sortNs / float64(busy)
	busy /= time.Duration(len(clients))
	if !o.trace {
		res.vals = endToEndValues(setup, walls, keys, busy, cpu1-cpu0, imbalance)
		return res, nil
	}

	v := res.vals
	runLayer(v, samples, res)
	statsLayer(v, samples, len(samples), keys/float64(len(jobs)))
	v["server.start_ms"] = ms(d.startup)
	v["server.drain_ms"] = median(append(drains, ms(drain)))
	v["server.job_ms_p50.recurring"] = median(byKind[kindRecurring])
	v["server.job_ms_p50.adhoc"] = median(byKind[kindAdhoc])
	v["server.job_ms_p50.bytes"] = median(byKind[kindBytes])
	v["server.job_ms_p95"] = quantile(walls, 0.95)
	v["server.sort_share"] = sortShare
	v["server.plan_hit_share"] = hits / float64(len(jobs))
	v["server.rounds_per_job"] = rounds / float64(len(jobs))
	v["server.shed_share"] = shed / float64(res.attempted)
	v["server.engines_built"] = engines
	v["server.req_mb_per_s"] = reqBytes / 1e6 / busy.Seconds()

	// The kernel and engine probes replay one recurring body on a local
	// engine shaped like the daemon's.
	keysOf := dist.Spec{Kind: dist.Gaussian}.Shard(nInt, 0, 1, base)
	pin := probeInput{
		cfg:      hssort.Config{Procs: daemonShards, Epsilon: daemonEps, Transport: hssort.TransportInproc, Workers: 1, StreamExchange: true},
		shards:   shardSlice(keysOf, daemonShards),
		byteKeys: dist.ByteSpec{Kind: dist.URLLike}.Shard(nBytes, 0, 1, base+999),
		scale:    o.scale,
	}
	pin.want = digestOf(pin.shards, hashInt64)
	return res, runProbes(ctx, pin, res.tracer, v)
}

// shardSlice splits a job's flat keys the way hssortd does: contiguous,
// equal shards.
func shardSlice(flat []int64, n int) [][]int64 {
	shards := make([][]int64, n)
	per := (len(flat) + n - 1) / n
	for r := range shards {
		lo := min(r*per, len(flat))
		shards[r] = flat[lo:min(lo+per, len(flat))]
	}
	return shards
}
