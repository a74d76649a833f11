package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hssort"
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
