package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hssort"
)

// Config configures the daemon. The zero value is usable; withDefaults
// fills the blanks.
type Config struct {
	// Shards is the engine shard (simulated processor) count every job
	// is split across. Default 4.
	Shards int
	// Transport selects the engines' communication backend. The zero
	// value is hssort.TransportSim (byte-accounted, as in
	// hssort.Config); hssortd's -transport flag defaults to inproc.
	Transport hssort.Transport
	// Workers is each engine's per-rank compute worker pool size.
	// Default 1 (serial per rank): concurrent jobs already fan out
	// across engines, so per-rank parallelism would oversubscribe.
	Workers int
	// Epsilon is the engines' load-imbalance threshold. Default 0.05.
	Epsilon float64
	// QueueDepth bounds the admission queue; submissions past it are
	// refused with 429. Default 64.
	QueueDepth int
	// TenantConcurrency caps one tenant's simultaneously running jobs.
	// Default 2.
	TenantConcurrency int
	// Concurrency is the scheduler worker count — the daemon-wide cap
	// on simultaneously running jobs. Default 4.
	Concurrency int
	// PlanCacheSize bounds the splitter-plan LRU. Default 128.
	PlanCacheSize int
	// MaxKeys, when positive, refuses jobs above it with 413. Default 0
	// (unlimited).
	MaxKeys int
}

// retainJobs bounds how many finished jobs stay queryable before the
// oldest are evicted.
const retainJobs = 256

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.05
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantConcurrency <= 0 {
		c.TenantConcurrency = 2
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 128
	}
	return c
}

// dsKey addresses a tenant's named dataset.
type dsKey struct {
	tenant string
	name   string
}

// Server is the sort service: an http.Handler wiring the job scheduler,
// the warm-engine pool, the plan cache and the metrics registry
// together. Create with New, serve with any http.Server, stop with
// Drain (graceful) then no further use.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sched   *scheduler
	engines *enginePool
	plans   *planCache
	metrics *metrics

	// fingerprint computes the plan-cache dataset sketch; a field so
	// tests can force collisions and hand a sort a drifted seed.
	fingerprint func(keyType string, shards, n int, sample []uint64) uint64

	mu        sync.Mutex
	jobs      map[string]*job
	doneOrder []string // finished job ids, oldest first, for eviction
	seq       int
	datasets  map[dsKey]*storedDataset
}

// New builds a Server and starts its scheduler workers.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg.withDefaults(),
		engines:     newEnginePool(),
		metrics:     newMetrics(),
		fingerprint: fingerprint,
		jobs:        make(map[string]*job),
		datasets:    make(map[dsKey]*storedDataset),
	}
	s.plans = newPlanCache(s.cfg.PlanCacheSize)
	s.sched = newScheduler(s.cfg.QueueDepth, s.cfg.TenantConcurrency, s.cfg.Concurrency, s.runJob)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/datasets/{name}/rank", s.handleRank)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// engineConfig is the one hssort.Config shape every pooled engine runs
// with; engines differ only by key type.
func (s *Server) engineConfig() hssort.Config {
	return hssort.Config{
		Procs:          s.cfg.Shards,
		Epsilon:        s.cfg.Epsilon,
		Transport:      s.cfg.Transport,
		Workers:        s.cfg.Workers,
		StreamExchange: true,
	}
}

// Drain stops admission (healthz flips to 503, new submissions get
// 503), waits for every admitted job to finish, then tears down the
// engine pool. Returns ctx.Err() if ctx expires first — jobs then keep
// finishing in the background but engines are not torn down.
func (s *Server) Drain(ctx context.Context) error {
	s.sched.beginDrain()
	done := make(chan struct{})
	go func() {
		s.sched.wait()
		close(done)
	}()
	select {
	case <-done:
		s.engines.closeAll()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with no deadline.
func (s *Server) Close() { _ = s.Drain(context.Background()) }

// handleSubmit is POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, data, err := s.decodeSubmission(r)
	if err != nil {
		code := http.StatusBadRequest
		var tooMany *tooManyKeysError
		if errors.As(err, &tooMany) {
			code, err = http.StatusRequestEntityTooLarge, tooMany
		}
		writeError(w, code, err)
		return
	}

	// The job context deliberately hangs off Background, not the
	// request: async jobs outlive their submission request.
	ctx := context.Background()
	var cancel context.CancelFunc
	if req.TimeoutMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j := &job{
		tenant:    req.Tenant,
		dataset:   req.Dataset,
		keyType:   data.keyType(),
		n:         data.n(),
		data:      data,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    statusQueued,
		submitted: time.Now(),
	}

	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("j-%08d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()

	if err := s.sched.submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		cancel()
		var quota *QuotaExceededError
		if errors.As(err, &quota) {
			s.metrics.rejected429(req.Tenant)
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}

	status := http.StatusAccepted
	if req.Wait {
		select {
		case <-j.done:
			status = http.StatusOK
		case <-r.Context().Done():
			// The submitter hung up; the job keeps running. Report
			// where it stands.
		}
	}
	s.writeJobDoc(w, status, j)
}

// decodeSubmission reads the request body once into a pooled buffer and
// parses it. The keys are decoded out of the buffer, so it goes back to
// the pool before the job is even queued.
func (s *Server) decodeSubmission(r *http.Request) (jobRequest, payload, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	t0 := time.Now()
	err := readBody(buf, r)
	t1 := time.Now()
	s.metrics.phase(phaseRead, t1.Sub(t0))
	if err != nil {
		return jobRequest{}, nil, fmt.Errorf("body: %w", err)
	}
	req, data, err := parseJobRequest(buf.Bytes(), s.cfg.Shards, s.cfg.MaxKeys)
	s.metrics.phase(phaseDecode, time.Since(t1))
	return req, data, err
}

// handleGetJob is GET /v1/jobs/{id}. The tenant query parameter must
// match the job's tenant; a foreign or unknown job is a uniform 404, so
// tenants cannot probe each other's job ids.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookupJob(r.PathValue("id"), r.URL.Query().Get("tenant"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJobDoc(w, http.StatusOK, j)
}

// handleCancelJob is DELETE /v1/jobs/{id}: cancels the job's context.
// A queued job fails before touching an engine; a running job aborts
// mid-phase on every rank. The engine survives for the next job.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookupJob(r.PathValue("id"), r.URL.Query().Get("tenant"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	j.cancel()
	s.writeJobDoc(w, http.StatusOK, j)
}

func (s *Server) lookupJob(id, tenant string) (*job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok || j.tenant != tenant {
		return nil, &JobNotFoundError{ID: id}
	}
	return j, nil
}

// handleRank is GET /v1/datasets/{name}/rank?tenant=T&key=K: answers
// rank and percentile queries against the tenant's most recent sorted
// output for the named dataset.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tenant := r.URL.Query().Get("tenant")
	key := r.URL.Query().Get("key")
	if !r.URL.Query().Has("key") {
		writeError(w, http.StatusBadRequest, errors.New("key query parameter is required"))
		return
	}
	s.mu.Lock()
	sd := s.datasets[dsKey{tenant: tenant, name: name}]
	s.mu.Unlock()
	if sd == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no sorted dataset %q for tenant %q", name, tenant))
		return
	}
	rank, err := sd.rank(key)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := struct {
		Dataset    string  `json:"dataset"`
		KeyType    string  `json:"keyType"`
		Key        string  `json:"key"`
		Rank       int64   `json:"rank"`
		N          int64   `json:"n"`
		Percentile float64 `json:"percentile"`
	}{Dataset: name, KeyType: sd.keyType, Key: key, Rank: rank, N: sd.n}
	if sd.n > 0 {
		resp.Percentile = float64(rank) / float64(sd.n)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics is GET /metrics (Prometheus text format).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, running := s.sched.depth()
	g := gauges{
		queued:       queued,
		running:      running,
		enginesBuilt: s.engines.count(),
		planEntries:  s.plans.len(),
		draining:     s.sched.isDraining(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w, g)
}

// handleHealthz is GET /healthz: 200 "ok" while serving, 503
// "draining" once Drain began.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.sched.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// runJob executes one dequeued job on the engine pool. It is the
// scheduler's run callback.
func (s *Server) runJob(j *job) {
	defer close(j.done)
	defer j.cancel()
	if err := j.ctx.Err(); err != nil {
		// Canceled or timed out while still queued: fail without
		// touching an engine.
		s.finishJob(j, nil, nil, hssort.Stats{}, planNone, err)
		return
	}
	j.mu.Lock()
	j.status = statusRunning
	j.started = time.Now()
	j.mu.Unlock()
	res, sd, stats, outcome, err := j.data.run(j.ctx, s, j.tenant)
	s.finishJob(j, res, sd, stats, outcome, err)
}

func (s *Server) finishJob(j *job, res jobResult, sd *storedDataset, stats hssort.Stats, outcome planOutcome, err error) {
	status := statusDone
	switch {
	case errors.Is(err, context.Canceled):
		status = statusCanceled
	case err != nil:
		status = statusFailed
	}
	j.mu.Lock()
	j.status = status
	j.err = err
	j.data = nil // the input shards: nothing reads them again
	j.result = res
	j.stats = stats
	j.outcome = outcome
	j.finished = time.Now()
	queued, ran := j.finished.Sub(j.submitted), time.Duration(0)
	if !j.started.IsZero() {
		queued, ran = j.started.Sub(j.submitted), j.finished.Sub(j.started)
	}
	j.mu.Unlock()
	s.metrics.phase(phaseQueue, queued)
	s.metrics.phase(phaseSort, ran)

	s.mu.Lock()
	if status == statusDone && sd != nil {
		s.datasets[dsKey{tenant: j.tenant, name: j.dataset}] = sd
	}
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > retainJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()

	s.metrics.jobFinished(j.tenant, string(status), stats, outcome)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
