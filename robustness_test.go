package hssort

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
)

// TestSortTimeoutSurfacesCleanly: an absurdly short timeout must produce
// an error mentioning the abort, never a hang or a panic.
func TestSortTimeoutSurfacesCleanly(t *testing.T) {
	const p = 16
	shards := dist.Spec{Kind: dist.Uniform}.Shards(200000, p, 3)
	_, _, err := Sort(Config{Procs: p, Timeout: 1 * time.Nanosecond}, shards)
	if err == nil {
		t.Skip("sort beat the 1ns timeout (!)")
	}
	if !strings.Contains(err.Error(), "abort") && !strings.Contains(err.Error(), "timeout") {
		t.Errorf("timeout error does not mention the abort: %v", err)
	}
}

// ---------------------------------------------------------------------
// Failure survival (Config.Chaos, PeerCrashError, respawn + rejoin)
// ---------------------------------------------------------------------

// chaosShards is the deterministic input the chaos tests share.
func chaosShards(p, perRank int) [][]int64 {
	return dist.Spec{Kind: dist.PowerSkew, Min: 0, Max: 1 << 40}.Shards(perRank, p, 17)
}

// TestSortUnderFaultInjection: seeded link delays over the real TCP
// loopback mesh change no output — each faulted run is rank-identical to a clean
// sim run, across both exchange planes and both compute planes, and at
// 16 ranks of small shards, which sort in two levels of 4×4. Run with
// -race in CI (the chaos job).
func TestSortUnderFaultInjection(t *testing.T) {
	// The two planes: the comparator (SortFunc) and the code plane (Sort).
	planes := []struct {
		name string
		sort func(Config, [][]int64) ([][]int64, Stats, error)
	}{
		{"off", func(cfg Config, sh [][]int64) ([][]int64, Stats, error) { return SortFunc(cfg, sh, cmp.Compare[int64]) }},
		{"on", Sort[int64]},
	}
	for _, c := range []struct {
		name       string
		p, perRank int
		stream     bool
	}{{"stream=false", 4, 800, false}, {"stream=true", 4, 800, true}, {"two-level", 16, 200, false}} {
		for _, plane := range planes {
			cfg := Config{Procs: c.p, Epsilon: 0.05, Seed: 3, StreamExchange: c.stream}

			simCfg := cfg
			simCfg.Transport = TransportSim
			want, _, err := plane.sort(simCfg, chaosShards(c.p, c.perRank))
			if err != nil {
				t.Fatalf("sim oracle: %v", err)
			}
			t.Run(fmt.Sprintf("delay/%s/codepath=%s", c.name, plane.name), func(t *testing.T) {
				chaosCfg := cfg
				chaosCfg.Transport = TransportTCP
				chaosCfg.Chaos = &ChaosConfig{Seed: 43, Delay: 0.25}
				outs, _, err := plane.sort(chaosCfg, chaosShards(c.p, c.perRank))
				if err != nil {
					t.Fatalf("faulted sort: %v", err)
				}
				for r := range want {
					if !slices.Equal(outs[r], want[r]) {
						t.Fatalf("rank %d output differs under link delays (%d vs %d keys)",
							r, len(outs[r]), len(want[r]))
					}
				}
			})
		}
	}
}

// crashReports walks a (possibly joined and wrapped) sort error and
// counts the per-rank *PeerCrashError leaves naming the victim.
func crashReports(err error, victim int) int {
	n := 0
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if crash, ok := e.(*PeerCrashError); ok {
			if crash.Rank == victim {
				n++
			}
			return
		}
		if m, ok := e.(interface{ Unwrap() []error }); ok {
			for _, c := range m.Unwrap() {
				walk(c)
			}
			return
		}
		walk(errors.Unwrap(e))
	}
	walk(err)
	return n
}

// TestPeerCrashMidExchange: a seeded crash of one rank during the data
// exchange makes the sort fail fast (no hang) with a *PeerCrashError
// naming the victim, on every surviving rank; Close then releases every
// socket and goroutine.
func TestPeerCrashMidExchange(t *testing.T) {
	const p, perRank, victim = 4, 800, 2
	before := runtime.NumGoroutine()
	{
		engine, err := New[int64](Config{
			Procs: p, Epsilon: 0.05, Seed: 3,
			Transport: TransportTCP,
			Chaos:     &ChaosConfig{Seed: 7, CrashRank: victim, CrashPhase: "exchange"},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = engine.Sort(context.Background(), chaosShards(p, perRank))
		var crash *PeerCrashError
		if !errors.As(err, &crash) {
			t.Fatalf("crashed sort returned %v, want a *PeerCrashError", err)
		}
		if crash.Rank != victim {
			t.Errorf("PeerCrashError names rank %d, want %d", crash.Rank, victim)
		}
		if !errors.Is(err, comm.ErrAborted) {
			t.Errorf("crash error does not wrap comm.ErrAborted: %v", err)
		}
		// Every surviving rank (and the victim itself, whose sends fail
		// with the latched crash) reports the same typed error for the
		// same rank.
		if n := crashReports(err, victim); n < p-1 {
			t.Errorf("only %d of %d surviving ranks reported the crash: %v", n, p-1, err)
		}
		engine.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after crash + Close: %d > baseline %d",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerCrashPhaseMatrix: Config.Chaos.CrashPhase names a phase of
// the one sort skeleton, so it fires under every splitter strategy and
// in the two-level sort of 16 ranks alike — each cell fails fast with a
// *PeerCrashError naming the victim, and every engine closes without
// leaking goroutines.
func TestPeerCrashPhaseMatrix(t *testing.T) {
	const victim = 2
	before := runtime.NumGoroutine()
	for _, alg := range []struct {
		name       string
		baseline   string
		p, perRank int
	}{
		{"hss", "", 4, 800}, {"samplesort-regular", "samplesort-regular", 4, 800},
		{"histogramsort", "histogramsort", 4, 800}, {"hss-two-level", "", 16, 100},
	} {
		for _, phase := range []string{"splitter", "exchange"} {
			t.Run(alg.name+"/"+phase, func(t *testing.T) {
				p, perRank := alg.p, alg.perRank
				engine, err := New[int64](Config{
					Procs: p, Epsilon: 0.05, Seed: 3,
					Transport: TransportSim,
					Chaos:     &ChaosConfig{Seed: 7, CrashRank: victim, CrashPhase: phase},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer engine.Close()
				withBaseline(engine, alg.baseline)
				_, _, err = engine.Sort(context.Background(), chaosShards(p, perRank))
				var crash *PeerCrashError
				if !errors.As(err, &crash) {
					t.Fatalf("crashed sort returned %v, want a *PeerCrashError", err)
				}
				if crash.Rank != victim {
					t.Errorf("PeerCrashError names rank %d, want %d", crash.Rank, victim)
				}
			})
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after crash + Close: %d > baseline %d",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRejoinThenSort: after a mid-sort crash, respawning the victim
// rank heals the same engine — the next Sort completes and is
// rank-identical to the sim oracle (the lost rank's shard re-executes
// deterministically), and the respawn surfaces in Stats.
func TestRejoinThenSort(t *testing.T) {
	const p, perRank, victim = 4, 1000, 1
	simCfg := Config{Procs: p, Epsilon: 0.05, Seed: 3}
	want, _, err := Sort(simCfg, chaosShards(p, perRank))
	if err != nil {
		t.Fatalf("sim oracle: %v", err)
	}

	cfg := simCfg
	cfg.Transport = TransportTCP
	cfg.Chaos = &ChaosConfig{Seed: 11, CrashRank: victim, CrashPhase: "exchange"}
	engine, err := New[int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	_, _, err = engine.Sort(context.Background(), chaosShards(p, perRank))
	var crash *PeerCrashError
	if !errors.As(err, &crash) || crash.Rank != victim {
		t.Fatalf("crashed sort returned %v, want *PeerCrashError{Rank: %d}", err, victim)
	}

	ft := engine.pool.Transport().(*comm.FaultTransport)
	ft.ClearCrash() // the one-shot crash fired; disarm for the healed runs
	if err := ft.Inner().(*comm.TCPLoopback).Respawn(victim); err != nil {
		t.Fatalf("respawn: %v", err)
	}

	// The healed sorts run bounded: a rejoin regression parks ranks, and
	// the default Config.Timeout would hold the package for ten minutes.
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	outs, stats, err := engine.Sort(ctx, chaosShards(p, perRank))
	if err != nil {
		t.Fatalf("sort after rejoin: %v", err)
	}
	for r := range want {
		if !slices.Equal(outs[r], want[r]) {
			t.Fatalf("rank %d output differs after rejoin (%d vs %d keys)",
				r, len(outs[r]), len(want[r]))
		}
	}
	if stats.Respawns < 1 {
		t.Errorf("Stats.Respawns = %d after a respawn, want >= 1", stats.Respawns)
	}

	// The healed engine keeps working: one more sort, same oracle.
	outs, _, err = engine.Sort(ctx, chaosShards(p, perRank))
	if err != nil {
		t.Fatalf("second sort after rejoin: %v", err)
	}
	for r := range want {
		if !slices.Equal(outs[r], want[r]) {
			t.Fatalf("rank %d output differs on the second healed sort", r)
		}
	}
}
