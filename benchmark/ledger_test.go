package main

import (
	"math"
	"testing"
)

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Fatalf("spread of one sample = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	cases := []struct {
		a, b, spread, bound float64
		higher              bool
		want                string
	}{
		{100, 105, 0.02, 0.10, false, "same"},
		{100, 115, 0.02, 0.10, false, "worse"},
		{100, 85, 0.02, 0.10, false, "better"},
		{100, 85, 0.02, 0.10, true, "worse"},
		{100, 115, 0.02, 0.10, true, "better"},
		{100, 150, 0.12, 0.10, false, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.spread, c.bound, c.higher); got != c.want {
			t.Errorf("judge(%v, %v, spread %v, bound %v, higher %v) = %s, want %s", c.a, c.b, c.spread, c.bound, c.higher, got, c.want)
		}
	}
}

func TestSameShapeRefuses(t *testing.T) {
	base := hostInfo{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", SortRate: 11}
	if err := sameShape(base, base); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]hostInfo{
		"nproc":      {NProc: 4, GOMAXPROCS: 2, GoVersion: "go1.24.0", SortRate: 11},
		"gomaxprocs": {NProc: 2, GOMAXPROCS: 1, GoVersion: "go1.24.0", SortRate: 11},
		"go version": {NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.25.0", SortRate: 11},
		"sort rate":  {NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", SortRate: 14},
	} {
		if err := sameShape(base, other); err == nil {
			t.Errorf("ledgers differing in %s were accepted", name)
		}
	}
}
