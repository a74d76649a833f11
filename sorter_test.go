package hssort

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"hssort/internal/dist"
)

// bg is the default context for engine tests.
var bg = context.Background()

// TestSorterReuse: one engine serves many sorts, each rank-identical to
// a one-shot Sort of the same input. Every round's output is kept and
// checked again after the last round, on both exchange forms and under
// a memory budget (the local sort borrows the consumed shard), for
// int64, uint64 and float64 keys. The code plane hands each rank its merged
// array decoded in place, so the outputs must own their memory: scratch
// the engine keeps between sorts, an input shard or another rank's
// output must never share it.
func TestSorterReuse(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"stream=false", Config{}},
		{"stream=true", Config{StreamExchange: true}},
		{"budget", Config{MemoryBudget: 1500 * 8 * 2}},
	} {
		t.Run(c.name+"/int64", func(t *testing.T) {
			checkSorterReuse(t, c.cfg, func(x int64) int64 { return x })
		})
		t.Run(c.name+"/uint64", func(t *testing.T) {
			checkSorterReuse(t, c.cfg, func(x int64) uint64 { return uint64(x) })
		})
		t.Run(c.name+"/float64", func(t *testing.T) {
			checkSorterReuse(t, c.cfg, func(x int64) float64 { return float64(x) / 3 })
		})
	}
}

func checkSorterReuse[K cmp.Ordered](t *testing.T, cfg Config, key func(int64) K) {
	const p, perRank, rounds = 4, 1500, 4
	cfg.Procs, cfg.Epsilon, cfg.Seed = p, 0.1, 5
	s, err := New[K](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wants, gots, ins [][]K
	for round := 0; round < rounds; round++ {
		shards := make([][]K, p)
		for r, sh := range shardsFor(t, dist.Gaussian, p, perRank, uint64(round+1)) {
			for _, x := range sh {
				shards[r] = append(shards[r], key(x))
			}
		}
		want, wantStats, err := Sort(cfg, cloneShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		in := cloneShards(shards)
		got, gotStats, err := s.Sort(bg, in)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for r := range want {
			if !slices.Equal(want[r], got[r]) {
				t.Fatalf("round %d rank %d: engine output differs from one-shot Sort", round, r)
			}
		}
		if gotStats.Rounds != wantStats.Rounds || gotStats.TotalSample != wantStats.TotalSample {
			t.Fatalf("round %d: protocol stats diverged: %+v vs %+v", round, gotStats, wantStats)
		}
		wants, gots, ins = append(wants, want...), append(gots, got...), append(ins, in...)
	}
	checkOutputs := func(skip int, what string) {
		t.Helper()
		for i := range gots {
			if i != skip && !slices.Equal(wants[i], gots[i]) {
				t.Fatalf("round %d rank %d: %s changed this output", i/p, i%p, what)
			}
		}
	}
	checkOutputs(-1, "a later sort")
	// Overwrite every input and every output in turn, through its whole
	// capacity (where an append would write), and re-check the others.
	junk := key(0x5a5a5a5a)
	overwrite := func(buf []K) (restore func()) {
		buf = buf[:cap(buf)]
		saved := slices.Clone(buf)
		for i := range buf {
			buf[i] = junk
		}
		return func() { copy(buf, saved) }
	}
	for i, in := range ins {
		restore := overwrite(in)
		checkOutputs(-1, fmt.Sprintf("overwriting round %d's input shard %d", i/p, i%p))
		restore()
	}
	for i, out := range gots {
		restore := overwrite(out)
		checkOutputs(i, fmt.Sprintf("overwriting round %d's output %d", i/p, i%p))
		restore()
	}
}

// TestPlanReports: a plan carries the protocol's achieved statistics.
func TestPlanReports(t *testing.T) {
	const p, perRank = 4, 4000
	s, err := New[int64](Config{Procs: p, Epsilon: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shards := shardsFor(t, dist.Uniform, p, perRank, 5)
	plan, err := s.Plan(bg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Buckets != p || len(plan.Splitters) != p-1 {
		t.Fatalf("plan geometry: %d buckets, %d splitters", plan.Buckets, len(plan.Splitters))
	}
	if plan.N != int64(p*perRank) {
		t.Errorf("plan.N = %d", plan.N)
	}
	if plan.Rounds < 1 || plan.TotalSample < 1 {
		t.Errorf("plan protocol stats empty: %+v", plan)
	}
	if !plan.Finalized {
		t.Error("uniform input did not finalize")
	}
	if plan.Epsilon != 0.05 {
		t.Errorf("plan.Epsilon = %v", plan.Epsilon)
	}
	// The guarantee is probabilistic, but on uniform data the achieved
	// ε must at least be computed and sane.
	if plan.AchievedEpsilon < 0 || plan.AchievedEpsilon > 1 {
		t.Errorf("plan.AchievedEpsilon = %v", plan.AchievedEpsilon)
	}
	// Plan must not consume the input: shards stay unsorted-ish. Verify
	// by sorting with the same engine afterwards.
	outs, _, err := s.Sort(bg, cloneShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, shards, outs)
}

// TestSeededSortDrift: a seed is histogrammed against the data it is
// asked to sort (round 0). On a drifted distribution the sort refines it
// — at least one sampling round, balance target met — and returns the
// refined plan, which the very next sort of the drifted data accepts at
// zero rounds.
func TestSeededSortDrift(t *testing.T) {
	const p, perRank = 8, 4000
	cfg := Config{Procs: p, Epsilon: 0.05, Seed: 9}
	// Plan on keys in [0, 1<<40); sort keys shifted far above: under the
	// seed every key lands in the last bucket.
	planShards := dist.Spec{Kind: dist.Uniform, Min: 0, Max: 1 << 40}.Shards(perRank, p, 31)
	drifted := dist.Spec{Kind: dist.Uniform, Min: 1 << 41, Max: 1 << 42}.Shards(perRank, p, 32)

	s, err := New[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := s.Plan(bg, planShards)
	if err != nil {
		t.Fatal(err)
	}
	outs, next, stats, err := s.SortSeeded(bg, plan, cloneShards(drifted))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, drifted, outs)
	if stats.Rounds < 1 {
		t.Fatal("drifted seed accepted: no histogramming rounds")
	}
	if stats.Imbalance > 1+cfg.Epsilon+1e-9 {
		t.Errorf("refined sort missed the balance target: imbalance %v", stats.Imbalance)
	}
	if next == nil || next.Rounds != stats.Rounds || !next.Finalized {
		t.Fatalf("refined plan: %+v (sort ran %d rounds)", next, stats.Rounds)
	}

	// The refined plan fits the drifted data: round 0 accepts it.
	outs, again, stats, err := s.SortSeeded(bg, next, cloneShards(drifted))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, drifted, outs)
	if stats.Rounds != 0 || stats.TotalSample != 0 {
		t.Errorf("refined plan refined again: rounds %d, sample %d", stats.Rounds, stats.TotalSample)
	}
	if stats.Imbalance > 1+cfg.Epsilon+1e-9 {
		t.Errorf("accepted seed missed the balance target: imbalance %v", stats.Imbalance)
	}
	if again == nil || !slices.Equal(again.Splitters, next.Splitters) || again.AchievedEpsilon > cfg.Epsilon {
		t.Errorf("accepted seed's plan: %+v", again)
	}

	// SortWithPlan is the same sort with the plan dropped.
	outs, stats, err = s.SortWithPlan(bg, plan, cloneShards(drifted))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, drifted, outs)
	if stats.Rounds < 1 || stats.Imbalance > 1+cfg.Epsilon+1e-9 {
		t.Errorf("SortWithPlan on drifted data: rounds %d, imbalance %v", stats.Rounds, stats.Imbalance)
	}
}

// TestSeededSortDuplicateSeed: a plan from a duplicate-heavy input
// carries equal adjacent splitters; a seeded sort that has to refine it
// compacts them before they reach the tracker (which panics on
// non-distinct probes) — on every plane.
func TestSeededSortDuplicateSeed(t *testing.T) {
	const p, perRank = 8, 3000
	dup := make([][]int64, p)
	for r := range dup {
		for i := 0; i < perRank; i++ {
			dup[r] = append(dup[r], int64(i%3)) // three distinct keys, eight buckets
		}
	}
	fresh := shardsFor(t, dist.Uniform, p, perRank, 41)
	for _, plane := range []struct {
		name string
		new  func(Config) (*Sorter[int64], error)
	}{
		{"off", func(cfg Config) (*Sorter[int64], error) { return NewFunc(cfg, cmp.Compare[int64]) }},
		{"auto", New[int64]},
	} {
		t.Run(plane.name, func(t *testing.T) {
			s, err := plane.new(Config{Procs: p, Epsilon: 0.05, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			plan, err := s.Plan(bg, dup)
			if err != nil {
				t.Fatal(err)
			}
			equal := 0
			for i := 1; i < len(plan.Splitters); i++ {
				if plan.Splitters[i] == plan.Splitters[i-1] {
					equal++
				}
			}
			if equal == 0 {
				t.Fatalf("plan on 3 distinct keys has no equal adjacent splitters: %v", plan.Splitters)
			}
			outs, next, stats, err := s.SortSeeded(bg, plan, cloneShards(fresh))
			if err != nil {
				t.Fatal(err)
			}
			checkSorted(t, fresh, outs)
			if stats.Rounds < 1 || stats.Imbalance > 1.05+1e-9 || next == nil || !next.Finalized {
				t.Errorf("refining a duplicate seed: rounds %d, imbalance %v, next %+v", stats.Rounds, stats.Imbalance, next)
			}
			// The same seed on the data it came from, which no splitters
			// can balance: refined (nothing to gain), still sorted.
			outs, _, _, err = s.SortSeeded(bg, plan, cloneShards(dup))
			if err != nil {
				t.Fatal(err)
			}
			checkSorted(t, dup, outs)
		})
	}
	b, err := NewBytes(Config{Procs: p, Epsilon: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	shared := make([][][]byte, p) // one 8-byte prefix: every splitter code is equal
	for r := range shared {
		for i := 0; i < 400; i++ {
			shared[r] = append(shared[r], fmt.Appendf(nil, "https://example.com/%d/%d", r, i))
		}
	}
	plan, err := b.Plan(bg, shared)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, _, err := b.SortSeeded(bg, plan, cloneAny(shared))
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for _, o := range outs {
		for _, k := range o {
			if bytes.Compare(prev, k) > 0 {
				t.Fatal("bytes output not sorted")
			}
			prev = k
		}
	}
}

// TestPlanMisuse: plans are rejected when they do not fit the engine.
func TestPlanMisuse(t *testing.T) {
	const p = 4
	shards := shardsFor(t, dist.Uniform, p, 500, 3)

	s, err := New[int64](Config{Procs: p, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := s.Plan(bg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SortWithPlan(bg, nil, cloneShards(shards)); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := s.Plan(bg, make([][]int64, p)); err == nil {
		t.Error("plan on empty input accepted (would be rejected by every SortWithPlan)")
	}
	if _, _, err := s.SortWithPlan(bg, &Plan[int64]{Splitters: plan.Splitters, Buckets: p}, cloneShards(shards)); err == nil {
		t.Error("hand-built plan accepted")
	}

	// A plan from a different geometry.
	other, err := New[int64](Config{Procs: p, Buckets: 2 * p, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, _, err := other.SortWithPlan(bg, plan, cloneShards(shards)); err == nil {
		t.Error("plan with mismatched bucket count accepted")
	}

	// Tagged sorts cannot use plans (tagged records, plain-key plans).
	tagged, err := New[int64](Config{Procs: p, TagDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tagged.Close()
	if _, err := tagged.Plan(bg, shards); err == nil {
		t.Error("tagged engine produced a plan")
	}
}

// TestSorterContext: engine calls respect context state — pre-cancelled
// contexts fail fast with ctx.Err() exactly, deadlines expire cleanly,
// and the engine stays usable after a cancelled call.
func TestSorterContext(t *testing.T) {
	const p = 4
	shards := shardsFor(t, dist.Uniform, p, 2000, 3)
	s, err := New[int64](Config{Procs: p, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := s.Sort(cancelled, cloneShards(shards)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Sort returned %v", err)
	}
	if _, err := s.Plan(cancelled, shards); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Plan returned %v", err)
	}

	// A deadline that expires mid-run surfaces as DeadlineExceeded.
	big := shardsFor(t, dist.Uniform, p, 200000, 4)
	expired, cancel2 := context.WithTimeout(bg, time.Millisecond)
	defer cancel2()
	if _, _, err := s.Sort(expired, big); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("deadline error = %v, want context.DeadlineExceeded", err)
	}

	// The engine recovered: a normal sort still works.
	outs, _, err := s.Sort(bg, cloneShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, shards, outs)
}

// TestSorterClose: Close is idempotent, later calls fail with
// ErrSorterClosed, and the worker goroutines actually exit.
func TestSorterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New[int64](Config{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	shards := shardsFor(t, dist.Uniform, 8, 200, 1)
	if _, _, err := s.Sort(bg, cloneShards(shards)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, _, err := s.Sort(bg, cloneShards(shards)); !errors.Is(err, ErrSorterClosed) {
		t.Fatalf("Sort after Close = %v, want ErrSorterClosed", err)
	}
	if _, err := s.Plan(bg, shards); !errors.Is(err, ErrSorterClosed) {
		t.Fatalf("Plan after Close = %v, want ErrSorterClosed", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d > %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSorterConstructorValidation: New validates once, loudly.
func TestSorterConstructorValidation(t *testing.T) {
	if _, err := New[int64](Config{}); err == nil {
		t.Error("Procs 0 accepted")
	}
	if _, err := NewFunc[int64](Config{Procs: 2}, nil); err == nil {
		t.Error("nil comparator accepted")
	}
}

// TestNewRejectsWhatSortWould: a Config the skeleton rejects fails at
// New — once, before any transport or worker goroutine exists — not on
// the first Sort, once per rank.
func TestNewRejectsWhatSortWould(t *testing.T) {
	for name, cfg := range map[string]Config{
		"Epsilon -1":              {Procs: 4, Epsilon: -1},
		"Buckets -3":              {Procs: 4, Buckets: -3},
		"ChunkKeys -5":            {Procs: 4, ChunkKeys: -5},
		"Timeout -1s":             {Procs: 4, Timeout: -time.Second},
		"Chaos delay 1.5":         {Procs: 4, Chaos: &ChaosConfig{Delay: 1.5}},
		"Chaos crash rank 4 of 4": {Procs: 4, Chaos: &ChaosConfig{CrashRank: 4, CrashPhase: "exchange"}},
	} {
		before := runtime.NumGoroutine()
		s, err := New[int64](cfg)
		if err == nil {
			s.Close()
			t.Errorf("%s: New succeeded", name)
			continue
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: New failed with %d goroutines running, %d before", name, got, before)
		}
	}
}

// TestPlanNaNSplitterGuard: a plan prepared on NaN-bearing float data
// can hold a NaN splitter (NaN sorts first), and a later SortWithPlan on
// NaN-free shards must still sort: the splitter encodes below -Inf, as
// the keys it was drawn from did.
func TestPlanNaNSplitterGuard(t *testing.T) {
	const p = 4
	nan := math.NaN()
	planShards := [][]float64{
		{nan, nan, nan, 1, 2}, {nan, nan, 3, 4, nan},
		{nan, 5, nan, 6, nan}, {nan, 7, nan, 8, nan},
	}
	s, err := New[float64](Config{Procs: p, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := s.Plan(bg, planShards)
	if err != nil {
		t.Fatal(err)
	}
	hasNaN := false
	for _, sp := range plan.Splitters {
		if sp != sp {
			hasNaN = true
		}
	}
	if !hasNaN {
		t.Skip("plan selected no NaN splitter; guard not exercised")
	}
	clean := [][]float64{{4, 1}, {3, 2}, {8, 5}, {7, 6}}
	outs, _, err := s.SortWithPlan(bg, plan, cloneAny(clean))
	if err != nil {
		t.Fatalf("SortWithPlan with a NaN splitter: %v", err)
	}
	var got []float64
	for _, o := range outs {
		got = append(got, o...)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("output not sorted: %v", got)
	}
}
