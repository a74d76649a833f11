package hssort

import "encoding/json"

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
