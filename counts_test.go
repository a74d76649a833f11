package hssort

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/keycoder"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/counts.golden from this run")

// TestCountsGolden pins the deterministic counts of real sorts on the sim
// transport at fixed seeds: rounds, sample and coverage per round,
// splitter and exchange bytes, messages and imbalance. They are a function of the
// protocol and the message schedule alone, so any change to this file is
// a change to one of them. Regenerate after an intended change with
//
//	go test -run '^TestCountsGolden$' . -args -update
func TestCountsGolden(t *testing.T) {
	var b strings.Builder
	ctx := context.Background()
	line := func(shape, name string, v any) { fmt.Fprintf(&b, "%s %s %v\n", shape, name, v) }
	record := func(shape string, st Stats, msgs int64) {
		line(shape, "rounds", st.Rounds)
		line(shape, "sample_per_round", ints(st.SamplePerRound))
		line(shape, "coverage_per_round", ints(st.CoveragePerRound))
		line(shape, "splitter_bytes", st.SplitterBytes)
		line(shape, "exchange_bytes", st.ExchangeBytes)
		line(shape, "messages", msgs)
		line(shape, "imbalance", strconv.FormatFloat(st.Imbalance, 'g', -1, 64))
	}

	// The benchmark's comm_bound workload, first input set at seed 1: two
	// levels of 16×16.
	s, err := New[int64](Config{Procs: 256, Epsilon: 0.02, Transport: TransportSim})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := s.Sort(ctx, dist.Spec{Kind: dist.PowerSkew}.Shards(2000, 256, 1_000_003))
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	record("comm_bound", st, st.TotalMsgs)

	// 16 ranks on core directly: two levels of 4×4, and the same sort
	// flat under an explicit owner (Levels keeps any sort with one flat).
	shards := dist.Spec{Kind: dist.Gaussian}.Shards(3000, 16, 5)
	opt := core.Options[int64]{Cmp: cmp.Compare[int64], Code: keycoder.Int64{}.Encode, Epsilon: 0.05, Seed: 7}
	st, msgs := coreCounts(t, cloneShards(shards), opt)
	record("p16_two_level", st, msgs)
	opt.Owner = exchange.ContiguousOwner(16, 16)
	st, msgs = coreCounts(t, cloneShards(shards), opt)
	record("p16_flat", st, msgs)

	// A plan trained on one distribution seeds a sort of a drifted one:
	// round 0 rejects it and the protocol resumes from its histogram.
	s, err = New[int64](Config{Procs: 16, Epsilon: 0.05, Seed: 3, Transport: TransportSim})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := s.Plan(ctx, dist.Spec{Kind: dist.Uniform}.Shards(2000, 16, 11))
	if err != nil {
		t.Fatal(err)
	}
	line("plan", "rounds", plan.Rounds)
	line("plan", "sample_per_round", ints(plan.SamplePerRound))
	_, _, st, err = s.SortSeeded(ctx, plan, dist.Spec{Kind: dist.PowerSkew}.Shards(2000, 16, 12))
	if err != nil {
		t.Fatal(err)
	}
	record("seeded", st, st.TotalMsgs)

	// Byte-string keys on the prefix plane.
	bs, err := NewBytes(Config{Procs: 16, Epsilon: 0.05, Seed: 5, Transport: TransportSim})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	_, st, err = bs.Sort(ctx, dist.ByteSpec{Kind: dist.HashLike}.Shards(1000, 16, 13))
	if err != nil {
		t.Fatal(err)
	}
	record("bytes", st, st.TotalMsgs)

	const golden = "testdata/counts.golden"
	if *updateCounts {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wl)) {
		if g, w := lineAt(got, i), lineAt(wl, i); g != w {
			t.Errorf("%s line %d:\n got %q\nwant %q", golden, i+1, g, w)
		}
	}
}

// coreCounts runs core.Sort on a fresh sim world and returns rank 0's
// Stats and the world's message count.
func coreCounts(t *testing.T, shards [][]int64, opt core.Options[int64]) (core.Stats, int64) {
	t.Helper()
	w := comm.NewWorld(len(shards), comm.WithTimeout(time.Minute))
	var st core.Stats
	err := w.Run(func(c *comm.Comm) error {
		_, s, err := core.Sort(c, shards[c.Rank()], opt)
		if c.Rank() == 0 {
			st = s
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, w.TotalCounters().MsgsSent
}

// ints formats a count list space-separated.
func ints(xs []int64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(s, " ")
}

// lineAt is lines[i], or "" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
