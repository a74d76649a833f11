package core

import (
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/spill"
)

// TestFinishStatsTable reduces two synthetic ranks' PhaseTimes through
// the declared statSlots table and checks every Stats field FinishStats
// owns: sums sum, maxima take the worse rank, and the two output-count
// slots yield Imbalance. A slot added without a reduce op (or without
// its pack/unpack ends) fails here before it can silently reduce as a
// max.
func TestFinishStatsTable(t *testing.T) {
	for i, s := range statSlots {
		if s.op != opSum && s.op != opMax {
			t.Errorf("slot %d (%q) declares no reduce op", i, s.name)
		}
		if s.name == "" || s.get == nil || s.set == nil {
			t.Errorf("slot %d (%q) is missing its name, get or set", i, s.name)
		}
	}

	ranks := []PhaseTimes{
		{
			SplitterBytes: 10, ExchangeBytes: 100,
			LocalSort: 5 * time.Millisecond, Splitter: 7 * time.Millisecond, Exchange: 9 * time.Millisecond,
			Merge: 11 * time.Millisecond, Overlap: 3 * time.Millisecond,
			PeakInFlight: 64, OutCount: 30,
			ParSpawned: 2, ParTasks: 8, PrefixCollisions: 4,
			Spill: spill.Stats{SpilledBytes: 1000, FileBytes: 400, Reads: 6, PeakResident: 512},
		},
		{
			SplitterBytes: 20, ExchangeBytes: 50,
			LocalSort: 6 * time.Millisecond, Splitter: 2 * time.Millisecond, Exchange: 12 * time.Millisecond,
			Merge: 1 * time.Millisecond, Overlap: 4 * time.Millisecond,
			PeakInFlight: 32, OutCount: 10,
			ParSpawned: 1, ParTasks: 5, PrefixCollisions: 0,
			Spill: spill.Stats{SpilledBytes: 500, FileBytes: 100, Reads: 1, PeakResident: 2048},
		},
	}
	want := Stats{
		SplitterBytes: 30, ExchangeBytes: 150,
		LocalSort: 6 * time.Millisecond, Splitter: 7 * time.Millisecond, Exchange: 12 * time.Millisecond,
		Merge: 11 * time.Millisecond, ExchangeOverlap: 4 * time.Millisecond,
		PeakInFlight: 64,
		ParSpawned:   3, ParTasks: 13, PrefixCollisions: 4,
		SpilledBytes: 1500, SpillFileBytes: 500, SpillReads: 7, PeakResident: 2048,
		Imbalance: 30.0 * 2 / 40, // hottest rank over the even share
	}

	got := make([]Stats, len(ranks))
	w := comm.NewWorld(len(ranks), comm.WithTimeout(30*time.Second))
	if err := w.Run(func(c *comm.Comm) error {
		return FinishStats(c, 1, &got[c.Rank()], ranks[c.Rank()])
	}); err != nil {
		t.Fatal(err)
	}
	for r, st := range got {
		// Stats holds a slice, so compare field by field.
		if st.SplitterBytes != want.SplitterBytes || st.ExchangeBytes != want.ExchangeBytes ||
			st.LocalSort != want.LocalSort || st.Splitter != want.Splitter ||
			st.Exchange != want.Exchange || st.Merge != want.Merge ||
			st.ExchangeOverlap != want.ExchangeOverlap || st.PeakInFlight != want.PeakInFlight ||
			st.ParSpawned != want.ParSpawned || st.ParTasks != want.ParTasks ||
			st.PrefixCollisions != want.PrefixCollisions ||
			st.Reconnects != 0 || st.Respawns != 0 ||
			st.SpilledBytes != want.SpilledBytes || st.SpillFileBytes != want.SpillFileBytes ||
			st.SpillReads != want.SpillReads || st.PeakResident != want.PeakResident ||
			st.Imbalance != want.Imbalance {
			t.Errorf("rank %d: reduced stats\n got %+v\nwant %+v", r, st, want)
		}
	}

	// No output anywhere reports a balanced (empty) sort.
	empty := make([]Stats, 2)
	if err := w.Run(func(c *comm.Comm) error {
		return FinishStats(c, 1, &empty[c.Rank()], PhaseTimes{})
	}); err != nil {
		t.Fatal(err)
	}
	if empty[0].Imbalance != 1 {
		t.Errorf("empty sort: Imbalance %v, want 1", empty[0].Imbalance)
	}
}
