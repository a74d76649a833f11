package core

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
)

// transports enumerates the comm backends for the cancellation matrix.
var ctxTransports = []struct {
	name string
	mk   func(p int) comm.Transport
}{
	{"sim", func(p int) comm.Transport { return comm.NewSimTransport(p) }},
	{"inproc", func(p int) comm.Transport { return comm.NewInprocTransport(p) }},
	{"tcp", func(p int) comm.Transport {
		tr, err := comm.NewTCPLoopback(p)
		if err != nil {
			panic(err)
		}
		return tr
	}},
}

// TestCancelMidHistogram cancels the context from inside the
// histogramming loop — on the root's first probe broadcast, through a
// fault transport's crash predicate that never crashes, while the other
// ranks wait in that broadcast — on every transport and both exchange
// planes, and asserts that every rank unblocks with an error satisfying
// errors.Is(err, context.Canceled) — then that the same pool runs a
// clean sort afterwards and its workers exit on Close.
func TestCancelMidHistogram(t *testing.T) {
	const p, perRank = 6, 5000
	for _, tr := range ctxTransports {
		for _, chunkKeys := range []int{0, 512} {
			name := tr.name + "/materializing"
			if chunkKeys > 0 {
				name = tr.name + "/stream"
			}
			t.Run(name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				shards := dist.Spec{Kind: dist.Gaussian}.Shards(perRank, p, 7)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ft := comm.NewFaultTransport(tr.mk(p), comm.FaultSpec{CrashRank: 0, CrashWhen: func(_, _ int, tag comm.Tag) bool {
					if tag == tagProbes {
						cancel() // mid-histogramming, peers blocked in collectives
					}
					return false
				}})
				pool := comm.NewPool(p, comm.WithTransport(ft), comm.WithTimeout(30*time.Second))
				rankErrs := make([]error, p)
				err := pool.Run(ctx, func(c *comm.Comm) error {
					opt := Options[int64]{
						Cmp:       cmp.Compare[int64],
						Epsilon:   0.01, // tight: guarantees several rounds
						ChunkKeys: chunkKeys,
						Workers:   3, // the leak assertion covers the worker pool's forks
					}
					_, _, err := Sort(c, shards[c.Rank()], opt)
					rankErrs[c.Rank()] = err
					return err
				})
				if err == nil {
					t.Fatal("cancelled sort returned nil")
				}
				for r, re := range rankErrs {
					if !errors.Is(re, context.Canceled) {
						t.Errorf("rank %d error = %v, want context.Canceled", r, re)
					}
				}

				// The engine contract: the same pool must serve a clean
				// sort after the cancellation.
				fresh := dist.Spec{Kind: dist.Gaussian}.Shards(1000, p, 8)
				if err := pool.Run(context.Background(), func(c *comm.Comm) error {
					_, _, err := Sort(c, fresh[c.Rank()], Options[int64]{
						Cmp: cmp.Compare[int64], Epsilon: 0.2, ChunkKeys: chunkKeys, Workers: 3,
					})
					return err
				}); err != nil {
					t.Fatalf("sort after cancellation: %v", err)
				}

				pool.Close()
				ft.Close() // tcp: release sockets + pump goroutines
				waitGoroutines(t, before)
			})
		}
	}
}

// waitGoroutines polls until the goroutine count returns to the given
// baseline — the world-join leak assertion.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
