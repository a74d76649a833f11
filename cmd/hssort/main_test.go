package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"hssort"
	"hssort/internal/dist"
)

// TestRetryBudget: a sort is retried only for a peer crash with a
// rejoin wait set, and at most five times in a row.
func TestRetryBudget(t *testing.T) {
	crash := &hssort.PeerCrashError{Rank: 1, Err: errors.New("eof")}
	for _, tc := range []struct {
		name  string
		err   error
		wait  time.Duration
		prior int // consecutive crashes already retried
		want  bool
	}{
		{"crash", crash, time.Second, 0, true},
		{"wrapped crash", fmt.Errorf("sort: %w", crash), time.Second, 0, true},
		{"fifth consecutive crash", crash, time.Second, 4, true},
		{"sixth consecutive crash", crash, time.Second, 5, false},
		{"no rejoin wait", crash, 0, 0, false},
		{"not a crash", errors.New("bad input"), time.Second, 0, false},
	} {
		b := retryBudget{attempts: tc.prior}
		if got := b.retry(tc.err, tc.wait); got != tc.want {
			t.Errorf("%s: retry = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// crashOnce is a sorter whose first Sort consumes its input — leaving
// it scrambled, as a budgeted int64 sort that borrowed it as scratch
// does — and fails with a peer crash; later sorts succeed.
type crashOnce struct {
	*hssort.Sorter[int64]
	crashed bool
}

func (c *crashOnce) Sort(ctx context.Context, shards [][]int64) ([][]int64, hssort.Stats, error) {
	if c.crashed {
		return c.Sorter.Sort(ctx, shards)
	}
	c.crashed = true
	for _, sh := range shards {
		for i := range sh {
			sh[i] = int64(i)
		}
	}
	return nil, hssort.Stats{}, &hssort.PeerCrashError{Rank: 1, Err: errors.New("eof")}
}

// TestSortRunsRetrySortsRegeneratedShards: a sort retried after a peer
// crash sorts its shards generated anew, not what the failed attempt
// left of them.
func TestSortRunsRetrySortsRegeneratedShards(t *testing.T) {
	const p, perRank = 4, 1000
	gen := func(i int) [][]int64 { return dist.Spec{Kind: dist.Zipfian}.Shards(perRank, p, uint64(7+i)) }
	for _, repeat := range []int{1, 3} {
		engine, err := hssort.New[int64](hssort.Config{Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		outs, _, _, err := sortRuns[int64](t.Context(), &crashOnce{Sorter: engine}, false, repeat, time.Second, gen(0), gen)
		engine.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want, got []int64
		for _, sh := range gen(0) {
			want = append(want, sh...)
		}
		slices.Sort(want)
		for _, o := range outs {
			got = append(got, o...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("repeat=%d: the last sort's output is not the sorted input", repeat)
		}
	}
}
