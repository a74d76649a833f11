package hssort

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestStatsSnapshotRoundTrip checks the Snapshot/MarshalJSON view: the
// JSON of a Stats carries every populated field under its documented
// name, durations as integer nanoseconds, and the derived total
// precomputed.
func TestStatsSnapshotRoundTrip(t *testing.T) {
	s := Stats{
		N:              1000,
		Buckets:        8,
		Rounds:         3,
		SamplePerRound: []int64{40, 20, 10},
		TotalSample:    70,
		LocalSort:      2 * time.Millisecond,
		Splitter:       time.Millisecond,
		Exchange:       3 * time.Millisecond,
		Merge:          time.Millisecond,
		SplitterBytes:  512,
		ExchangeBytes:  8192,
		TotalMsgs:      64,
		TotalBytes:     8704,
		Workers:        2,
		Imbalance:      1.03,
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"n":             1000,
		"buckets":       8,
		"rounds":        3,
		"totalSample":   70,
		"localSortNs":   2e6,
		"splitterNs":    1e6,
		"exchangeNs":    3e6,
		"mergeNs":       1e6,
		"totalNs":       float64(s.Total().Nanoseconds()),
		"splitterBytes": 512,
		"exchangeBytes": 8192,
		"totalMsgs":     64,
		"totalBytes":    8704,
		"workers":       2,
		"imbalance":     1.03,
	}
	for k, v := range want {
		got, ok := m[k].(float64)
		if !ok || got != v {
			t.Errorf("field %q = %v, want %v", k, m[k], v)
		}
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, s.Snapshot()) {
		t.Errorf("snapshot did not survive the round trip:\n got %+v\nwant %+v", snap, s.Snapshot())
	}
}

// TestStatsSnapshotOmitsEmpty checks that the optional fields drop out
// of the JSON of a minimal run instead of reading as misleading zeros.
func TestStatsSnapshotOmitsEmpty(t *testing.T) {
	b, err := json.Marshal(Stats{N: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"samplePerRound", "exchangeOverlapNs", "parSpawned", "prefixCollisions", "reconnects", "respawns"} {
		if _, ok := m[k]; ok {
			t.Errorf("optional field %q serialized for a zero value", k)
		}
	}
}

// TestStatsSnapshotOfRealSort sanity-checks the snapshot of an actual
// run: the totals line up with the phase fields it was built from.
func TestStatsSnapshotOfRealSort(t *testing.T) {
	s, err := New[int64](Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shards := make([][]int64, 4)
	for r := range shards {
		for i := 0; i < 500; i++ {
			shards[r] = append(shards[r], int64((i*2654435761+r*97)%100000))
		}
	}
	_, stats, err := s.Sort(context.Background(), shards)
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.N != 2000 {
		t.Errorf("snapshot N = %d, want 2000", snap.N)
	}
	if snap.TotalNs != stats.Total().Nanoseconds() {
		t.Errorf("snapshot TotalNs = %d, want %d", snap.TotalNs, stats.Total().Nanoseconds())
	}
	if snap.Rounds != stats.Rounds || snap.Imbalance != stats.Imbalance {
		t.Errorf("snapshot fields diverge from stats: %+v vs %+v", snap, stats)
	}
}
