package server

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"hssort"
)

// metrics is the daemon's Prometheus registry: counters aggregated from
// every finished job's hssort.Stats plus scheduler gauges, rendered in
// the Prometheus text exposition format by writeTo. A hand-rolled
// registry keeps the daemon dependency-free; the surface is the
// stable-name contract documented in docs/API.md.
type metrics struct {
	mu sync.Mutex

	rejected    int64 // admissions refused (429)
	planHits    int64
	planMisses  int64
	planReplans int64

	rounds        int64   // histogram rounds, summed over jobs (plan determination included)
	keysSorted    int64   // keys through the engines
	sortSeconds   float64 // sum of per-job critical-path Stats.Total()
	exchangeBytes int64
	splitterBytes int64
	phaseSeconds  [len(phaseNames)]float64 // wall time per job phase, summed over requests

	jobs       map[string]map[string]int64 // tenant -> status -> count
	lastRounds map[string]int64            // tenant -> rounds of its most recent sort
	lastEps    map[string]float64          // tenant -> achieved epsilon of its most recent sort
}

// jobPhase is one leg of a job's path through the daemon, for the
// hssortd_job_phase_seconds_total attribution counters.
type jobPhase int

const (
	phaseRead   jobPhase = iota // request body off the socket
	phaseDecode                 // body parsed into typed shards
	phaseQueue                  // admitted, waiting for a worker
	phaseSort                   // on a worker: fingerprint, engine checkout, the sort itself
	phaseEncode                 // job document marshalled and written (submit, get and cancel replies)
)

var phaseNames = [...]string{phaseRead: "read", phaseDecode: "decode", phaseQueue: "queue", phaseSort: "sort", phaseEncode: "encode"}

func newMetrics() *metrics {
	return &metrics{
		jobs:       make(map[string]map[string]int64),
		lastRounds: make(map[string]int64),
		lastEps:    make(map[string]float64),
	}
}

// jobFinished folds one finished job into the aggregates. status is the
// terminal job status ("done", "failed" or "canceled"); outcome the
// plan-cache verdict of the run (planNone for jobs that never sorted).
func (m *metrics) jobFinished(tenant, status string, stats hssort.Stats, outcome planOutcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.jobs[tenant]
	if byStatus == nil {
		byStatus = make(map[string]int64)
		m.jobs[tenant] = byStatus
	}
	byStatus[status]++
	switch outcome {
	case planHit:
		m.planHits++
	case planMiss:
		m.planMisses++
	case planRefined:
		m.planHits++ // a replanned run found a cached plan, and had to refine it
		m.planReplans++
	}
	if status != "done" {
		return
	}
	m.rounds += int64(stats.Rounds)
	m.keysSorted += stats.N
	m.sortSeconds += stats.Total().Seconds()
	m.exchangeBytes += stats.ExchangeBytes
	m.splitterBytes += stats.SplitterBytes
	m.lastRounds[tenant] = int64(stats.Rounds)
	if stats.Imbalance > 0 {
		m.lastEps[tenant] = stats.Imbalance - 1
	}
}

// phase adds d to a job phase's wall-time counter.
func (m *metrics) phase(p jobPhase, d time.Duration) {
	m.mu.Lock()
	m.phaseSeconds[p] += d.Seconds()
	m.mu.Unlock()
}

// rejected429 counts one admission refusal.
func (m *metrics) rejected429(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
	byStatus := m.jobs[tenant]
	if byStatus == nil {
		byStatus = make(map[string]int64)
		m.jobs[tenant] = byStatus
	}
	byStatus["rejected"]++
}

// gauges are the instantaneous values sampled at scrape time.
type gauges struct {
	queued       int
	running      int
	enginesBuilt int
	planEntries  int
	draining     bool
}

// writeTo renders the registry in the Prometheus text format. Label
// sets are emitted in sorted order so scrapes are deterministic.
func (m *metrics) writeTo(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	up := 1
	if g.draining {
		up = 0
	}
	head := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counter := func(name, help string, v any) {
		head(name, help, "counter")
		fmt.Fprintf(w, "%s %v\n", name, v)
	}
	gauge := func(name, help string, v any) {
		head(name, help, "gauge")
		fmt.Fprintf(w, "%s %v\n", name, v)
	}
	labeled := func(name, help, typ string, rows []string) {
		head(name, help, typ)
		slices.Sort(rows)
		for _, r := range rows {
			fmt.Fprintln(w, r)
		}
	}

	gauge("hssortd_up", "1 while serving, 0 while draining.", up)
	gauge("hssortd_queue_depth", "Jobs waiting in the admission queue.", g.queued)
	gauge("hssortd_jobs_running", "Jobs currently sorting on an engine.", g.running)
	gauge("hssortd_engines_built", "Warm Sorter engines constructed by the pool.", g.enginesBuilt)
	gauge("hssortd_plan_cache_entries", "Splitter plans held by the plan cache.", g.planEntries)

	var jobRows []string
	for tenant, byStatus := range m.jobs {
		for status, n := range byStatus {
			jobRows = append(jobRows, fmt.Sprintf("hssortd_jobs_total{status=%q,tenant=%q} %d", status, tenant, n))
		}
	}
	labeled("hssortd_jobs_total", "Finished jobs by tenant and terminal status.", "counter", jobRows)
	counter("hssortd_rejected_total", "Submissions refused by admission control (HTTP 429).", m.rejected)
	counter("hssortd_plan_cache_hits_total", "Jobs that reused a cached splitter plan.", m.planHits)
	counter("hssortd_plan_cache_misses_total", "Jobs that had to determine fresh splitters.", m.planMisses)
	counter("hssortd_plan_replans_total", "Cached plans a sort had to refine (seeded, Rounds > 0) and re-cached.", m.planReplans)
	counter("hssortd_histogram_rounds_total", "Histogramming rounds run, summed over jobs.", m.rounds)
	counter("hssortd_keys_sorted_total", "Keys sorted, summed over jobs.", m.keysSorted)
	counter("hssortd_sort_seconds_total", "Critical-path sort time (Stats.Total), summed over jobs.", m.sortSeconds)
	var phaseRows []string
	for p, name := range phaseNames {
		phaseRows = append(phaseRows, fmt.Sprintf("hssortd_job_phase_seconds_total{phase=%q} %g", name, m.phaseSeconds[p]))
	}
	labeled("hssortd_job_phase_seconds_total", "Wall time by job phase (read, decode, queue, sort, encode), summed over requests.", "counter", phaseRows)
	counter("hssortd_exchange_bytes_total", "Exchange-phase bytes (Stats.ExchangeBytes), summed over jobs.", m.exchangeBytes)
	counter("hssortd_splitter_bytes_total", "Splitter-phase bytes (Stats.SplitterBytes), summed over jobs.", m.splitterBytes)

	var roundRows []string
	for tenant, r := range m.lastRounds {
		roundRows = append(roundRows, fmt.Sprintf("hssortd_last_sort_rounds{tenant=%q} %d", tenant, r))
	}
	labeled("hssortd_last_sort_rounds", "Histogramming rounds of each tenant's most recent sort (0 = plan reused).", "gauge", roundRows)
	var epsRows []string
	for tenant, e := range m.lastEps {
		epsRows = append(epsRows, fmt.Sprintf("hssortd_last_achieved_epsilon{tenant=%q} %g", tenant, e))
	}
	labeled("hssortd_last_achieved_epsilon", "Achieved load-imbalance epsilon (Imbalance-1) of each tenant's most recent sort.", "gauge", epsRows)
}
