package main

import (
	"fmt"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of the ledger. BENCHMARK.json repeats these
// lists (the smoke test holds the two in step) and alone holds the bounds,
// which -compare reads from it.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a caller of the system sees, the same names on
// every workload. Failures are not a metric here: every run reports
// attempted/failed next to the metrics, and any failed op fails the run.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"op_ms_p50", "ms", false},
	{"keys_per_s", "1/s", true},
	{"cpu_ms_per_mkey", "ms", false},
	{"imbalance", "ratio", false},
}

// perLayer are the traced run's numbers, <module>.<metric>. A metric whose
// input does not exist on a workload (server.* off service_mix, spill.*
// without a budget, ...) reads 0 there.
var perLayer = []metricDef{
	{"host.nproc", "count", true},
	{"host.slices_sort_mkeys_per_s", "Mkeys/s", true},
	{"host.memcpy_gb_per_s", "GB/s", true},

	{"run.samples", "count", true},
	{"run.failed_share", "ratio", false},
	{"run.op_ms_p75", "ms", false},
	{"run.op_ms_max", "ms", false},
	{"run.peak_rss_mb", "MB", false},
	{"run.trace_overhead_share", "ratio", false},

	{"hssort.new_ms", "ms", false},
	{"hssort.first_sort_ms", "ms", false},
	{"hssort.plan_ms", "ms", false},
	{"hssort.sort_with_plan_ms", "ms", false},
	{"hssort.overhead_ms", "ms", false},
	{"hssort.alloc_bytes_per_key", "B", false},
	{"hssort.mallocs_per_kkey", "count", false},

	{"core.local_sort_ms", "ms", false},
	{"core.splitter_ms", "ms", false},
	{"core.exchange_ms", "ms", false},
	{"core.merge_ms", "ms", false},
	{"core.rounds", "count", false},
	{"core.total_sample", "count", false},
	{"core.splitter_bytes", "B", false},
	{"core.determine_splitters_ms", "ms", false},

	{"sampling.bernoulli_ns_per_key", "ns", false},
	{"histogram.local_ranks_us", "us", false},
	{"histogram.tracker_update_us", "us", false},
	{"histogram.scan_us", "us", false},

	{"codes.encode_mkeys_per_s", "Mkeys/s", true},
	{"codes.sort_mkeys_per_s", "Mkeys/s", true},
	{"codes.sort_par_mkeys_per_s", "Mkeys/s", true},
	{"codes.cuts_us", "us", false},
	{"codes.delta_mb_per_s", "MB/s", true},
	{"codes.tiebreak_mkeys_per_s", "Mkeys/s", true},
	{"keycoder.prefix_mkeys_per_s", "Mkeys/s", true},
	{"par.tasks_per_fork", "count", true},
	{"par.sort_speedup", "ratio", true},

	{"merge.kway_mkeys_per_s", "Mkeys/s", true},
	{"merge.cmp_kway_mkeys_per_s", "Mkeys/s", true},
	{"merge.stream_mkeys_per_s", "Mkeys/s", true},
	{"merge.sources_mkeys_per_s", "Mkeys/s", true},

	{"exchange.partition_mkeys_per_s", "Mkeys/s", true},
	{"exchange.materialize_ms", "ms", false},
	{"exchange.stream_ms", "ms", false},
	{"exchange.bytes", "B", false},
	{"exchange.overlap_ms", "ms", true},
	{"exchange.peak_inflight_bytes", "B", false},

	{"comm.world_setup_ms", "ms", false},
	{"comm.pingpong_us", "us", false},
	{"comm.stream_mb_per_s", "MB/s", true},
	{"comm.msgs", "count", false},
	{"comm.bytes", "B", false},
	{"comm.bytes_per_key", "B", false},
	{"collective.allreduce_us", "us", false},
	{"collective.bcast_us", "us", false},
	{"collective.gatherv_us", "us", false},
	{"collective.alltoallv_ms", "ms", false},

	{"spill.write_mb_per_s", "MB/s", true},
	{"spill.read_mb_per_s", "MB/s", true},
	{"spill.local_sort_mkeys_per_s", "Mkeys/s", true},
	{"spill.compress_ratio", "ratio", true},
	{"spill.spilled_bytes", "B", false},
	{"spill.reads", "count", false},
	{"spill.peak_resident_bytes", "B", false},
	{"spill.slowdown", "ratio", false},

	{"server.start_ms", "ms", false},
	{"server.drain_ms", "ms", false},
	{"server.job_ms_p50.recurring", "ms", false},
	{"server.job_ms_p50.adhoc", "ms", false},
	{"server.job_ms_p50.bytes", "ms", false},
	{"server.job_ms_p95", "ms", false},
	{"server.sort_share", "ratio", true},
	{"server.plan_hit_share", "ratio", true},
	{"server.rounds_per_job", "count", false},
	{"server.shed_share", "ratio", false},
	{"server.engines_built", "count", false},
	{"server.req_mb_per_s", "MB/s", true},

	{"bspmodel.sample_ratio", "ratio", false},
	{"bspmodel.splitter_bytes_ratio", "ratio", false},

	{"cmd_hssort.launch_wall_s", "s", false},
	{"cmd_hssort.sort_ms", "ms", false},
	{"cmd_hssort.digest_match", "count", true},
}

// metric is one reported value in the result line's shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values is a run's measurements by metric name.
type values map[string]float64

// shape pairs vals with the units of defs. A metric of defs that vals lacks
// reads 0 (see perLayer); a name outside defs is a bug in the benchmark.
func shape(defs []metricDef, vals values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles as Python's statistics.quantiles(n=4)
// gives them (the exclusive method) — the contract's steadiness measure.
// Fewer than two samples have no spread.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / med
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perSec is count/d in millions per second (Mkeys/s, or MB/s for bytes).
func perSec(count int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(count) / d.Seconds() / 1e6
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
