package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/spill"
)

// TestLevels pins the two-level predicate: the world sizes it splits and
// their shape, and every option and key count that keeps a sort flat.
func TestLevels(t *testing.T) {
	const n = 1 << 20
	for _, c := range []struct{ p, g, w int }{
		{4, 0, 0}, {15, 0, 0}, {16, 4, 4}, {17, 0, 0}, {18, 0, 0}, {22, 0, 0}, {64, 8, 8}, {256, 16, 16},
	} {
		g, w, ok := Levels(c.p, n, Options[int64]{})
		if ok != (c.g > 0) || ok && (g != c.g || w != c.w) {
			t.Errorf("p=%d: Levels = (%d, %d, %v), want (%d, %d, %v)", c.p, g, w, ok, c.g, c.w, c.g > 0)
		}
	}
	for name, o := range map[string]Options[int64]{
		"buckets=p":  {Buckets: 64},
		"buckets=2p": {Buckets: 128},
		"owner":      {Owner: exchange.RoundRobinOwner(64)},
		"chunked":    {ChunkKeys: 512},
		"spill":      {Spill: &spill.Manager{}},
	} {
		if _, _, ok := Levels(64, n, o); ok != (name == "buckets=p") {
			t.Errorf("%s: two levels = %v", name, ok)
		}
	}
	// 256 ranks of 31 keys at ε = 0.02 have under a key of level-2 slack
	// each (the benchmark's comm_bound at 1/64 scale); of 200, 2.
	for perRank, want := range map[int64]bool{31: false, 200: true} {
		if _, _, ok := Levels(256, 256*perRank, Options[int64]{Epsilon: 0.02}); ok != want {
			t.Errorf("256 ranks of %d keys: two levels = %v", perRank, ok)
		}
	}
}

// TestTwoLevelCrash crashes one rank of a 16-rank two-level sort at its
// first send of level 1's column exchange, of level 2's splitter rounds
// and of level 2's row exchange. Every rank must fail with a
// *comm.PeerCrashError naming it, on sim and on the tcp loopback mesh,
// and nothing may leak.
func TestTwoLevelCrash(t *testing.T) {
	const p, victim = 16, 6
	transports := []struct {
		name string
		mk   func() comm.Transport
	}{
		{"sim", func() comm.Transport { return comm.NewSimTransport(p) }},
		{"tcp", func() comm.Transport {
			tr, err := comm.NewTCPLoopback(p)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
	// Each point returns a fresh trigger: sends are checked in order, so
	// level 2's rounds are the strategy sends after the column exchange.
	points := []struct {
		name string
		when func() func(src, dst int, tag comm.Tag) bool
	}{
		{"level1-exchange", func() func(int, int, comm.Tag) bool {
			return func(_, _ int, tag comm.Tag) bool { return tag == tagExchange }
		}},
		{"level2-splitters", func() func(int, int, comm.Tag) bool {
			var exchanged atomic.Bool
			return func(_, _ int, tag comm.Tag) bool {
				if tag == tagExchange {
					exchanged.Store(true)
				}
				return exchanged.Load() && tag >= TagStrategy && tag < TagStrategy+StrategyTags
			}
		}},
		{"level2-exchange", func() func(int, int, comm.Tag) bool {
			return func(_, _ int, tag comm.Tag) bool { return tag == tagExchange+1 }
		}},
	}
	shards := dist.Spec{Kind: dist.PowerSkew}.Shards(300, p, 5)
	for _, tr := range transports {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s/%s", tr.name, pt.name), func(t *testing.T) {
				before := runtime.NumGoroutine()
				ft := comm.NewFaultTransport(tr.mk(), comm.FaultSpec{CrashRank: victim, CrashWhen: pt.when()})
				errs := make([]error, p)
				w := comm.NewWorld(p, comm.WithTransport(ft), comm.WithTimeout(30*time.Second))
				if err := w.Run(func(c *comm.Comm) error {
					local := append([]int64(nil), shards[c.Rank()]...)
					_, _, errs[c.Rank()] = Sort(c, local, Options[int64]{Cmp: icmp, Seed: 3})
					return errs[c.Rank()]
				}); err == nil {
					t.Fatal("crashed sort returned nil")
				}
				if ft.FaultStats().Crashes != 1 {
					t.Fatalf("the crash never fired")
				}
				for r, err := range errs {
					var crash *comm.PeerCrashError
					if !errors.As(err, &crash) || crash.Rank != victim {
						t.Errorf("rank %d: %v, want a *comm.PeerCrashError naming rank %d", r, err, victim)
					}
				}
				ft.Close()
				waitGoroutines(t, before)
			})
		}
	}
}
