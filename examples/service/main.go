// Service usage: a long-lived engine whose every sort starts from the
// splitters of the one before, on a key distribution that drifts.
//
// A Sorter engine is built once (transport, worker world and scratch are
// reused across every call). The first batch is sorted cold and its
// splitters kept; every later batch is sorted with SortSeeded, seeded
// with the plan the previous sort ended with. While the distribution
// holds, the seed passes round 0 — one cheap reduction of the bucket
// loads — and the sort skips histogramming altogether. When the workload
// drifts, round 0 rejects the seed and the sort refines it, starting from
// the histogram that rejected it rather than from nothing; the refined
// plan it returns fits the drifted data, so the next batch is a
// zero-round sort again.
//
// This is a self-improving sorter with no separate training phase: what
// each sort learns about the distribution flows into the next one. The
// program exits 1 if the drifted batch is not refined or the batch after
// it does not run zero rounds on the refined plan — CI runs it for that.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"os/signal"
	"time"

	"hssort"
)

const (
	procs   = 16
	perProc = 40_000
	batches = 8
	epsilon = 0.05
	driftAt = 4       // the batch at which the key window moves
	driftBy = 1 << 40 // by a quarter of its width
)

// batchShards draws one batch: fresh uniform keys from a window that
// holds still for a few batches, jumps upward once, and holds still
// again — a workload whose distribution shifts, as a time-keyed or
// load-keyed one does.
func batchShards(batch int) [][]int64 {
	shards := make([][]int64, procs)
	var lo int64
	if batch >= driftAt {
		lo = driftBy
	}
	for r := range shards {
		rng := rand.New(rand.NewPCG(uint64(batch)*1000+uint64(r), 42))
		shards[r] = make([]int64, perProc)
		for i := range shards[r] {
			shards[r][i] = lo + rng.Int64N(1<<42)
		}
	}
	return shards
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Build the engine once. Everything heavyweight — config
	// validation, the transport, one goroutine per simulated rank,
	// per-rank scratch — happens here, not per sort.
	engine, err := hssort.New[int64](hssort.Config{
		Procs:     procs,
		Epsilon:   epsilon,
		Transport: hssort.TransportInproc, // production-style throughput
	})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	// The first batch has nothing to start from: a nil seed is a plain
	// sort that hands back the splitters it determined.
	_, plan, cold, err := engine.SortSeeded(ctx, nil, batchShards(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch 0 (cold): %d splitters, %d histogram rounds, %d sample keys, achieved eps %.4f (target %.4f)\n\n",
		len(plan.Splitters), cold.Rounds, cold.TotalSample, plan.AchievedEpsilon, plan.Epsilon)

	// Every later batch is seeded with the plan the previous one ended
	// with. Round 0 decides, per sort, whether that plan still fits.
	fmt.Printf("%-7s %-8s %-9s %-11s %-8s %s\n", "batch", "rounds", "sample", "imbalance", "wall", "note")
	ok := true
	for b := 1; b <= batches; b++ {
		if err := ctx.Err(); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		_, next, stats, err := engine.SortSeeded(ctx, plan, batchShards(b))
		if err != nil {
			log.Fatal(err)
		}
		note := "seed stood, histogramming skipped"
		if stats.Rounds > 0 {
			note = fmt.Sprintf("seed refined (cold start: %d rounds, %d sample keys)", cold.Rounds, cold.TotalSample)
		}
		switch {
		case b == driftAt && stats.Rounds == 0:
			ok, note = false, "FAIL: the drifted batch passed round 0"
		case b == driftAt+1 && stats.Rounds != 0:
			ok, note = false, "FAIL: the refined plan did not fit the batch after the drift"
		case stats.Imbalance > 1+epsilon:
			ok, note = false, "FAIL: balance target missed"
		}
		fmt.Printf("%-7d %-8d %-9d %-11.4f %-8v %s\n",
			b, stats.Rounds, stats.TotalSample, stats.Imbalance, time.Since(start).Round(time.Millisecond), note)
		plan = next
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Printf("\nevery batch met the %.2f target; only the drifted batch histogrammed, and it started from its seed\n", 1+epsilon)
}
