package main

import (
	"strings"
	"testing"
)

func TestCheckSortedDetectsDamage(t *testing.T) {
	input := [][]int64{{9, 2, 7}, {4, 4, 1}, {8, 3}}
	want := digestOf(input, hashInt64)
	sorted := func() [][]int64 { return [][]int64{{1, 2, 3}, {4, 4, 7}, {8, 9}} }

	if imb, err := checkInt64(sorted(), want, 1.5); err != nil || imb != 3.0*3/8 {
		t.Fatalf("correct output: imbalance %v, err %v", imb, err)
	}
	cases := []struct {
		name   string
		damage func(out [][]int64) [][]int64
		want   string
	}{
		{"swapped pair in a rank", func(o [][]int64) [][]int64 { o[0][0], o[0][1] = o[0][1], o[0][0]; return o }, "out of order"},
		{"swapped pair across ranks", func(o [][]int64) [][]int64 { o[0][2], o[1][0] = o[1][0], o[0][2]; return o }, "starts below"},
		{"dropped key", func(o [][]int64) [][]int64 { o[1] = o[1][:2]; return o }, "output holds 7 keys"},
		{"duplicated key", func(o [][]int64) [][]int64 { o[2] = append(o[2], 9); return o }, "output holds 9 keys"},
		{"replaced key", func(o [][]int64) [][]int64 { o[2][1] = 10; return o }, "output holds 8 keys (sum"},
		{"unbalanced", func(o [][]int64) [][]int64 { return [][]int64{{1, 2, 3, 4, 4, 7}, {8}, {9}} }, "imbalance"},
	}
	for _, c := range cases {
		_, err := checkInt64(c.damage(sorted()), want, 1.5)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestCheckBytes(t *testing.T) {
	input := [][][]byte{{[]byte("b"), []byte("a")}, {[]byte("ab")}}
	want := digestOf(input, hashBytes)
	if _, err := checkBytes([][][]byte{{[]byte("a"), []byte("ab")}, {[]byte("b")}}, want, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := checkBytes([][][]byte{{[]byte("a"), []byte("b")}, {[]byte("ab")}}, want, 2); err == nil {
		t.Fatal("cross-rank disorder of byte keys not detected")
	}
}
