package core

import (
	"reflect"
	"testing"
	"time"

	"hssort/internal/comm"
)

// TestFinishStatsTable reduces two synthetic ranks' own Stats through
// the declared statSlots table and checks every Stats field finishStats
// owns: sums sum, maxima take the worse rank, and the two output-count
// slots yield Imbalance. A slot added without a reduce op fails here
// before it can silently reduce as a max.
func TestFinishStatsTable(t *testing.T) {
	for i, s := range statSlots {
		if s.op != opSum && s.op != opMax {
			t.Errorf("slot %d (%q) declares no reduce op", i, s.name)
		}
		if s.name == "" {
			t.Errorf("slot %d is missing its name", i)
		}
	}

	ranks := []Stats{
		{
			SplitterBytes: 10, ExchangeBytes: 100,
			LocalSort: 5 * time.Millisecond, Splitter: 7 * time.Millisecond, Exchange: 9 * time.Millisecond,
			Merge: 11 * time.Millisecond, ExchangeOverlap: 3 * time.Millisecond,
			PeakInFlightBytes: 64,
			ParSpawned:        2, ParTasks: 8, PrefixCollisions: 4,
			SpilledBytes: 1000, SpillFileBytes: 400, SpillReads: 6, PeakResidentBytes: 512,
		},
		{
			SplitterBytes: 20, ExchangeBytes: 50,
			LocalSort: 6 * time.Millisecond, Splitter: 2 * time.Millisecond, Exchange: 12 * time.Millisecond,
			Merge: 1 * time.Millisecond, ExchangeOverlap: 4 * time.Millisecond,
			PeakInFlightBytes: 32,
			ParSpawned:        1, ParTasks: 5, PrefixCollisions: 0,
			SpilledBytes: 500, SpillFileBytes: 100, SpillReads: 1, PeakResidentBytes: 2048,
		},
	}
	outs := []int{30, 10}
	want := Stats{
		SplitterBytes: 30, ExchangeBytes: 150,
		LocalSort: 6 * time.Millisecond, Splitter: 7 * time.Millisecond, Exchange: 12 * time.Millisecond,
		Merge: 11 * time.Millisecond, ExchangeOverlap: 4 * time.Millisecond,
		PeakInFlightBytes: 64,
		ParSpawned:        3, ParTasks: 13, PrefixCollisions: 4,
		SpilledBytes: 1500, SpillFileBytes: 500, SpillReads: 7, PeakResidentBytes: 2048,
		Imbalance: 30.0 * 2 / 40, // hottest rank over the even share
	}

	w := comm.NewWorld(len(ranks), comm.WithTimeout(30*time.Second))
	if err := w.Run(func(c *comm.Comm) error {
		return finishStats(c, 1, &ranks[c.Rank()], outs[c.Rank()])
	}); err != nil {
		t.Fatal(err)
	}
	for r, st := range ranks {
		if !reflect.DeepEqual(st, want) {
			t.Errorf("rank %d: reduced stats\n got %+v\nwant %+v", r, st, want)
		}
	}

	// No output anywhere reports a balanced (empty) sort.
	empty := make([]Stats, 2)
	if err := w.Run(func(c *comm.Comm) error {
		return finishStats(c, 1, &empty[c.Rank()], 0)
	}); err != nil {
		t.Fatal(err)
	}
	if empty[0].Imbalance != 1 {
		t.Errorf("empty sort: Imbalance %v, want 1", empty[0].Imbalance)
	}
}

// engineSet are the Stats fields no statSlots row reduces: the front
// half sets N, Buckets, Workers and the protocol counts identically on
// every rank, finishStats derives Imbalance from the output-count slots,
// and the hssort engine reads TotalMsgs and TotalBytes off its transport.
var engineSet = map[string]bool{
	"N": true, "Buckets": true, "Rounds": true, "SamplePerRound": true, "TotalSample": true, "CoveragePerRound": true,
	"Workers": true, "Imbalance": true, "TotalMsgs": true, "TotalBytes": true,
}

// TestStatsFieldsAccounted checks that every exported Stats field is
// either reduced by exactly one statSlots row or on the engine-set list,
// and that Snapshot carries it into a StatsSnapshot twin of the same
// name (a duration as the name plus Ns). A reported value added to
// Stats without its reduction or its JSON fails here.
func TestStatsFieldsAccounted(t *testing.T) {
	var st Stats
	sv := reflect.ValueOf(&st).Elem()
	reducedBy := map[uintptr]string{}
	for _, s := range statSlots {
		if s.field == nil {
			continue
		}
		at := reflect.ValueOf(s.field(&st)).Pointer()
		if prev, ok := reducedBy[at]; ok {
			t.Errorf("slots %q and %q reduce the same field", prev, s.name)
		}
		reducedBy[at] = s.name
	}

	durType := reflect.TypeOf(time.Duration(0))
	snapType := reflect.TypeOf(StatsSnapshot{})
	twins := map[string]bool{"TotalNs": true} // Total(), derived
	for i := range sv.NumField() {
		f := sv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		slot, reduced := reducedBy[sv.Field(i).Addr().Pointer()]
		switch {
		case reduced && engineSet[f.Name]:
			t.Errorf("%s is reduced by slot %q and on the engine-set list", f.Name, slot)
		case !reduced && !engineSet[f.Name]:
			t.Errorf("%s is neither reduced by a statSlots row nor on the engine-set list", f.Name)
		}

		twin := f.Name
		if f.Type == durType {
			twin += "Ns"
		}
		if _, ok := snapType.FieldByName(twin); !ok {
			t.Errorf("%s has no StatsSnapshot twin %s", f.Name, twin)
			continue
		}
		twins[twin] = true

		// A value set on the field alone must reach its twin.
		var one Stats
		fv := reflect.ValueOf(&one).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(7)
		case reflect.Float64:
			fv.SetFloat(7)
		case reflect.Slice:
			fv.Set(reflect.ValueOf([]int64{7}))
		default:
			t.Fatalf("%s: unexpected kind %v", f.Name, fv.Kind())
		}
		if reflect.ValueOf(one.Snapshot()).FieldByName(twin).IsZero() {
			t.Errorf("Snapshot does not carry %s into %s", f.Name, twin)
		}
	}
	for i := range snapType.NumField() {
		if name := snapType.Field(i).Name; !twins[name] {
			t.Errorf("StatsSnapshot.%s has no Stats field", name)
		}
	}
}
