package core

import (
	"encoding/json"
	"time"

	"hssort/internal/collective"
	"hssort/internal/comm"
)

// Stats reports one sort run; see the field comments on the paper
// quantities each one reproduces. It is also each rank's own record while
// the sort runs (Front.Stats): the phases add this rank's measurements to
// it, and finishStats reduces them in place to the values documented
// here, identical on every rank. The root package re-exports it as
// hssort.Stats.
type Stats struct {
	// N is the global key count, Buckets the bucket count.
	N       int64
	Buckets int
	// Rounds is the number of histogramming rounds (Table 6.1);
	// SamplePerRound and TotalSample the per-round and overall sample
	// sizes (Fig 4.1). A seeded sort (hssort.Sorter.SortSeeded) whose
	// seed still met the 1+ε target reads 0 in all three. From 16 ranks
	// the sort may run in two levels of √p-rank groups (Levels): Rounds
	// is then level 1's plus the most any group's level 2 ran, and
	// SamplePerRound lists level 1's rounds, then level 2's summed over
	// the groups.
	Rounds         int
	SamplePerRound []int64
	TotalSample    int64
	// CoveragePerRound is G_j, the keys still inside active splitter
	// intervals, after each round (Fig 3.1, Theorem 3.3.2), as
	// SimResult.CoveragePerRound defines it: non-increasing, and 0 after
	// the last round when every splitter finalized. At two levels it
	// lists level 1's, then level 2's summed over the groups. nil where
	// SamplePerRound is empty, and for the §4.2 baselines.
	CoveragePerRound []int64
	// LocalSort, Splitter, Exchange, Merge are critical-path phase
	// times (Fig 6.1's breakdown; max over ranks).
	LocalSort, Splitter, Exchange, Merge time.Duration
	// ExchangeOverlap is merge time hidden inside the exchange on the
	// streaming path (§6.2's overlap; max over ranks). Zero on the
	// materializing path: hssort.Config.StreamExchange and ChunkKeys off
	// and no MemoryBudget.
	ExchangeOverlap time.Duration
	// PeakInFlightBytes is the peak per-rank volume buffered by the
	// streaming exchange awaiting merge (max over ranks; bounded by
	// (p-1)·2·ChunkKeys·keysize, the window being a fixed 2 chunks per
	// destination). Zero on the materializing path, which runs only
	// without a MemoryBudget, and when a budget diverts every incoming
	// stream to disk.
	PeakInFlightBytes int64
	// SplitterBytes and ExchangeBytes are total bytes sent during
	// splitter determination and data movement (§5.1's communication
	// terms).
	SplitterBytes, ExchangeBytes int64
	// TotalMsgs and TotalBytes are whole-run message and byte counts
	// (§6.1's message-combining metric). The hssort engine reads them
	// off its transport after the run; core's own sorts leave them 0.
	TotalMsgs, TotalBytes int64
	// Workers is the resolved per-rank worker pool size the compute
	// phases ran with (hssort.Config.Workers after defaulting). 1 =
	// serial.
	Workers int
	// ParSpawned and ParTasks count, summed over all ranks, the worker
	// goroutines forked and the parallel tasks executed by the compute
	// kernels — ParTasks/ParSpawned is the effective fan-out per fork.
	// Both are zero when Workers is 1.
	ParSpawned, ParTasks int64
	// Imbalance is max load / average load after sorting (§1).
	Imbalance float64
	// PrefixCollisions counts, summed over ranks, the keys that shared
	// an 8-byte prefix code with a neighbour during the local sorts and
	// therefore needed the comparator tie-break — the byte-key prefix
	// plane's measure of how much of the input the fixed-size code could
	// not discriminate. Zero off the prefix plane (NewBytes engines
	// only).
	PrefixCollisions int64
	// Reconnects and Respawns are transport lifecycle counters summed
	// over all ranks: dial retries beyond each first attempt, and rejoin
	// handshakes after a crash (1 from the rejoined rank plus 1 per
	// surviving peer that re-adopted it). Zero on the in-memory
	// transports — nonzero values fingerprint a TCP mesh that survived
	// churn.
	Reconnects, Respawns int64
	// SpilledBytes, SpillFileBytes and SpillReads are out-of-core plane
	// counters, summed over ranks: uncompressed key bytes written to
	// spill runs, the (compressed) bytes those runs occupied on disk,
	// and the frames read back during the merge. Only the streaming
	// exchange's diverted streams spill, never the local sort. All zero
	// when hssort.Config.MemoryBudget is 0 or the exchange stayed within
	// it.
	SpilledBytes, SpillFileBytes, SpillReads int64
	// PeakResidentBytes is the peak spill-managed working set of any
	// rank (max over ranks): the high-water mark of bytes the spill
	// plane held in memory at once. At most hssort.Config.MemoryBudget,
	// down to the merge's structural floor: every spilled run needs one
	// read-back frame (at least 64 keys) resident to stay mergeable,
	// so a budget smaller than fan-in × minimum frame is overshot by
	// exactly that floor rather than deadlocking.
	PeakResidentBytes int64
}

// Total returns the end-to-end critical-path time.
func (s Stats) Total() time.Duration {
	return s.LocalSort + s.Splitter + s.Exchange + s.Merge
}

// StatsSnapshot is the serialization-ready view of Stats: every field
// of one sort run flattened into JSON-tagged scalars, with durations in
// integer nanoseconds (lossless, language-neutral) and the derived
// end-to-end total precomputed. It is what travels over the wire —
// hssortd's job status responses and /metrics aggregation are built on
// it, and cmd/hssort -digest prints one as a machine-readable stats
// line — so callers never reach into Stats fields to serialize a run.
type StatsSnapshot struct {
	N                 int64   `json:"n"`
	Buckets           int     `json:"buckets"`
	Rounds            int     `json:"rounds"`
	SamplePerRound    []int64 `json:"samplePerRound,omitempty"`
	TotalSample       int64   `json:"totalSample"`
	CoveragePerRound  []int64 `json:"coveragePerRound,omitempty"`
	LocalSortNs       int64   `json:"localSortNs"`
	SplitterNs        int64   `json:"splitterNs"`
	ExchangeNs        int64   `json:"exchangeNs"`
	MergeNs           int64   `json:"mergeNs"`
	TotalNs           int64   `json:"totalNs"`
	ExchangeOverlapNs int64   `json:"exchangeOverlapNs,omitempty"`
	PeakInFlightBytes int64   `json:"peakInFlightBytes,omitempty"`
	SplitterBytes     int64   `json:"splitterBytes"`
	ExchangeBytes     int64   `json:"exchangeBytes"`
	TotalMsgs         int64   `json:"totalMsgs"`
	TotalBytes        int64   `json:"totalBytes"`
	Workers           int     `json:"workers"`
	ParSpawned        int64   `json:"parSpawned,omitempty"`
	ParTasks          int64   `json:"parTasks,omitempty"`
	Imbalance         float64 `json:"imbalance"`
	PrefixCollisions  int64   `json:"prefixCollisions,omitempty"`
	Reconnects        int64   `json:"reconnects,omitempty"`
	Respawns          int64   `json:"respawns,omitempty"`
	SpilledBytes      int64   `json:"spilledBytes,omitempty"`
	SpillFileBytes    int64   `json:"spillFileBytes,omitempty"`
	SpillReads        int64   `json:"spillReads,omitempty"`
	PeakResidentBytes int64   `json:"peakResidentBytes,omitempty"`
}

// Snapshot flattens the Stats into their serialization-ready view.
func (s Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		N:                 s.N,
		Buckets:           s.Buckets,
		Rounds:            s.Rounds,
		SamplePerRound:    s.SamplePerRound,
		TotalSample:       s.TotalSample,
		CoveragePerRound:  s.CoveragePerRound,
		LocalSortNs:       s.LocalSort.Nanoseconds(),
		SplitterNs:        s.Splitter.Nanoseconds(),
		ExchangeNs:        s.Exchange.Nanoseconds(),
		MergeNs:           s.Merge.Nanoseconds(),
		TotalNs:           s.Total().Nanoseconds(),
		ExchangeOverlapNs: s.ExchangeOverlap.Nanoseconds(),
		PeakInFlightBytes: s.PeakInFlightBytes,
		SplitterBytes:     s.SplitterBytes,
		ExchangeBytes:     s.ExchangeBytes,
		TotalMsgs:         s.TotalMsgs,
		TotalBytes:        s.TotalBytes,
		Workers:           s.Workers,
		ParSpawned:        s.ParSpawned,
		ParTasks:          s.ParTasks,
		Imbalance:         s.Imbalance,
		PrefixCollisions:  s.PrefixCollisions,
		Reconnects:        s.Reconnects,
		Respawns:          s.Respawns,
		SpilledBytes:      s.SpilledBytes,
		SpillFileBytes:    s.SpillFileBytes,
		SpillReads:        s.SpillReads,
		PeakResidentBytes: s.PeakResidentBytes,
	}
}

// MarshalJSON serializes the Stats as their Snapshot.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}

// reduceOp is how a stats slot combines across ranks.
type reduceOp int

const (
	opSum reduceOp = iota + 1 // global total
	opMax                     // the BSP critical path / the worst rank
)

// statSlots declares the vector finishStats all-reduces, one row per
// slot: the Stats field it reduces in place (a duration as its
// nanoseconds) and how two ranks' values combine. The output-count rows
// have no field: both carry the rank's output count, and their
// aggregates yield Imbalance.
var statSlots = []struct {
	name  string
	op    reduceOp
	field func(*Stats) *int64
}{
	{"splitter_bytes", opSum, func(s *Stats) *int64 { return &s.SplitterBytes }},
	{"exchange_bytes", opSum, func(s *Stats) *int64 { return &s.ExchangeBytes }},
	{"local_sort", opMax, func(s *Stats) *int64 { return (*int64)(&s.LocalSort) }},
	{"splitter", opMax, func(s *Stats) *int64 { return (*int64)(&s.Splitter) }},
	{"exchange", opMax, func(s *Stats) *int64 { return (*int64)(&s.Exchange) }},
	{"merge", opMax, func(s *Stats) *int64 { return (*int64)(&s.Merge) }},
	{"exchange_overlap", opMax, func(s *Stats) *int64 { return (*int64)(&s.ExchangeOverlap) }},
	{"peak_in_flight", opMax, func(s *Stats) *int64 { return &s.PeakInFlightBytes }},
	{"out_total", opSum, nil},
	{"out_max", opMax, nil},
	{"par_spawned", opSum, func(s *Stats) *int64 { return &s.ParSpawned }},
	{"par_tasks", opSum, func(s *Stats) *int64 { return &s.ParTasks }},
	{"prefix_collisions", opSum, func(s *Stats) *int64 { return &s.PrefixCollisions }},
	{"reconnects", opSum, func(s *Stats) *int64 { return &s.Reconnects }},
	{"respawns", opSum, func(s *Stats) *int64 { return &s.Respawns }},
	{"spilled_bytes", opSum, func(s *Stats) *int64 { return &s.SpilledBytes }},
	{"spill_file_bytes", opSum, func(s *Stats) *int64 { return &s.SpillFileBytes }},
	{"spill_reads", opSum, func(s *Stats) *int64 { return &s.SpillReads }},
	{"peak_resident", opMax, func(s *Stats) *int64 { return &s.PeakResidentBytes }},
}

// finishStats all-reduces the rank's own Stats in place, the final
// collective step shared by every sort pipeline, in one vector laid out
// by statSlots: byte counts and output totals sum across ranks; phase
// times, overlap and peak in-flight take the global max (the BSP
// critical path); out, the rank's output count, yields Imbalance.
// Transport lifecycle counters (reconnects, respawns) are read off the
// endpoint itself and summed, so a single rank's crash-recovery work is
// visible in every rank's Stats. Every rank must call it with the same
// tag, and every rank receives the same aggregates.
func finishStats(e comm.Endpoint, tag comm.Tag, st *Stats, out int) error {
	if cc, ok := e.(*comm.Comm); ok {
		ctr := cc.Counters()
		st.Reconnects, st.Respawns = ctr.Reconnects, ctr.Respawns
	}
	vec := make([]int64, len(statSlots))
	for i, s := range statSlots {
		vec[i] = int64(out)
		if s.field != nil {
			vec[i] = *s.field(st)
		}
	}
	agg, err := collective.AllReduce(e, tag, vec, func(dst, src []int64) {
		for i, s := range statSlots {
			if s.op == opSum {
				dst[i] += src[i]
			} else if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	})
	if err != nil {
		return err
	}
	var outTotal, outMax int64
	for i, s := range statSlots {
		switch {
		case s.field != nil:
			*s.field(st) = agg[i]
		case s.op == opSum:
			outTotal = agg[i]
		default:
			outMax = agg[i]
		}
	}
	if outTotal > 0 {
		st.Imbalance = float64(outMax) * float64(e.Size()) / float64(outTotal)
	} else {
		st.Imbalance = 1
	}
	return nil
}
