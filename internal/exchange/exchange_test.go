package exchange

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/codes"
	"hssort/internal/comm"
	"hssort/internal/keycoder"
	"hssort/internal/merge"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func TestPartitionKnown(t *testing.T) {
	sorted := []int64{1, 3, 5, 5, 7, 9}
	runs := Partition(sorted, []int64{5, 8}, icmp)
	if len(runs) != 3 {
		t.Fatalf("got %d runs", len(runs))
	}
	if !slices.Equal(runs[0], []int64{1, 3}) {
		t.Errorf("run 0 = %v", runs[0])
	}
	// Keys equal to a splitter belong to the bucket the splitter opens.
	if !slices.Equal(runs[1], []int64{5, 5, 7}) {
		t.Errorf("run 1 = %v", runs[1])
	}
	if !slices.Equal(runs[2], []int64{9}) {
		t.Errorf("run 2 = %v", runs[2])
	}
}

func TestPartitionEdges(t *testing.T) {
	if runs := Partition([]int64{}, []int64{5}, icmp); len(runs) != 2 || len(runs[0]) != 0 || len(runs[1]) != 0 {
		t.Errorf("empty input: %v", runs)
	}
	if runs := Partition([]int64{1, 2}, nil, icmp); len(runs) != 1 || !slices.Equal(runs[0], []int64{1, 2}) {
		t.Errorf("no splitters: %v", runs)
	}
	// All keys below every splitter.
	runs := Partition([]int64{1, 2}, []int64{10, 20}, icmp)
	if !slices.Equal(runs[0], []int64{1, 2}) || len(runs[1]) != 0 || len(runs[2]) != 0 {
		t.Errorf("below-all: %v", runs)
	}
	// Duplicate splitters produce an empty middle bucket.
	runs = Partition([]int64{1, 5, 9}, []int64{5, 5}, icmp)
	if !slices.Equal(runs[0], []int64{1}) || len(runs[1]) != 0 || !slices.Equal(runs[2], []int64{5, 9}) {
		t.Errorf("dup splitters: %v", runs)
	}
}

// TestPartitionDebugValidation: the O(B) splitter re-check left the hot
// path (splitters are validated once at determination time) but survives
// as a Debug assertion.
func TestPartitionDebugValidation(t *testing.T) {
	Debug = true
	defer func() { Debug = false }()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Partition([]int64{1}, []int64{5, 3}, icmp)
}

func TestValidateSplittersPanics(t *testing.T) {
	ValidateSplitters([]int64{1, 2, 2, 5}, icmp) // sorted: fine
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	ValidateSplitters([]int64{5, 3}, icmp)
}

// TestPartitionGapRegimes: Partition gallops from each cut to the next;
// at every ratio of keys to splitters, from B >> n to n/B = 10^4, with
// duplicate keys and splitters, every run must hold exactly its
// bucket's keys, and the runs concatenate to the input.
func TestPartitionGapRegimes(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	for _, shape := range []struct{ n, b int }{{40, 600}, {300, 300}, {2000, 92}, {12800, 100}, {100000, 10}} {
		sorted := make([]int64, shape.n)
		for i := range sorted {
			sorted[i] = rng.Int64N(int64(shape.n))
		}
		slices.Sort(sorted)
		sp := make([]int64, shape.b)
		for i := range sp {
			sp[i] = rng.Int64N(int64(shape.n + shape.n/10))
		}
		slices.Sort(sp)
		runs := Partition(sorted, sp, icmp)
		var cat []int64
		for i, run := range runs {
			for _, k := range run {
				if i > 0 && k < sp[i-1] {
					t.Fatalf("n=%d b=%d: run %d holds %d below splitter %d", shape.n, shape.b, i, k, sp[i-1])
				}
				if i < len(sp) && k >= sp[i] {
					t.Fatalf("n=%d b=%d: run %d holds %d at/above splitter %d", shape.n, shape.b, i, k, sp[i])
				}
			}
			cat = append(cat, run...)
		}
		if !slices.Equal(cat, sorted) {
			t.Fatalf("n=%d b=%d: runs do not concatenate to the input", shape.n, shape.b)
		}
	}
}

// TestPartitionByCodeMatchesPartition: the code-plane cuts equal the
// comparator cuts run for run, from a few buckets to B >> n.
func TestPartitionByCodeMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 2))
	for _, shape := range []struct{ n, b int }{{5000, 7}, {50, 800}, {0, 3}, {100, 0}} {
		sorted := make([]int64, shape.n)
		for i := range sorted {
			sorted[i] = rng.Int64N(1 << 20)
		}
		slices.Sort(sorted)
		sp := make([]int64, shape.b)
		for i := range sp {
			sp[i] = rng.Int64N(1 << 20)
		}
		slices.Sort(sp)
		want := Partition(sorted, sp, icmp)

		enc := func(k int64) uint64 { return keycoder.Int64{}.Encode(k) }
		cs := codes.Extract(sorted, enc)
		got := PartitionByCode(sorted, cs, codes.Extract(sp, enc))
		if len(got) != len(want) {
			t.Fatalf("n=%d b=%d: %d runs vs %d", shape.n, shape.b, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("n=%d b=%d: run %d differs", shape.n, shape.b, i)
			}
		}
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(data []int16, cuts []int16) bool {
		sorted := make([]int64, len(data))
		for i, v := range data {
			sorted[i] = int64(v)
		}
		slices.Sort(sorted)
		sp := make([]int64, len(cuts))
		for i, v := range cuts {
			sp[i] = int64(v)
		}
		slices.Sort(sp)
		runs := Partition(sorted, sp, icmp)
		// Concatenation must reproduce the input; each run must respect
		// its half-open range.
		var cat []int64
		for i, run := range runs {
			for _, k := range run {
				if i > 0 && k < sp[i-1] {
					return false
				}
				if i < len(sp) && k >= sp[i] {
					return false
				}
			}
			cat = append(cat, run...)
		}
		return slices.Equal(cat, sorted)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContiguousOwner(t *testing.T) {
	// 8 buckets over 4 ranks: two each.
	own := ContiguousOwner(8, 4)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for b, w := range want {
		if got := own(b); got != w {
			t.Errorf("own(%d) = %d, want %d", b, got, w)
		}
	}
	// Identity case.
	own = ContiguousOwner(5, 5)
	for b := 0; b < 5; b++ {
		if own(b) != b {
			t.Errorf("identity own(%d) = %d", b, own(b))
		}
	}
	// Uneven: 7 buckets over 3 ranks — owners non-decreasing, all ranks used.
	own = ContiguousOwner(7, 3)
	prev := 0
	used := map[int]bool{}
	for b := 0; b < 7; b++ {
		o := own(b)
		if o < prev || o > 2 {
			t.Fatalf("owner sequence broken at %d: %d", b, o)
		}
		prev = o
		used[o] = true
	}
	if len(used) != 3 {
		t.Errorf("only %d ranks used", len(used))
	}
	// Fewer buckets than ranks: buckets spread over distinct ranks
	// starting at 0 (a single bucket lands on rank 0, not rank p-1).
	own = ContiguousOwner(1, 4)
	if own(0) != 0 {
		t.Errorf("single bucket owned by rank %d, want 0", own(0))
	}
	own = ContiguousOwner(2, 4)
	if own(0) != 0 || own(1) != 2 {
		t.Errorf("2 buckets over 4 ranks owned by %d,%d", own(0), own(1))
	}
}

func TestRoundRobinOwner(t *testing.T) {
	own := RoundRobinOwner(3)
	for b := 0; b < 9; b++ {
		if own(b) != b%3 {
			t.Errorf("own(%d) = %d", b, own(b))
		}
	}
}

func runWorld(t *testing.T, p int, fn func(c *comm.Comm) error) {
	t.Helper()
	w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
	if err := w.Run(fn); err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
}

func TestExchangeIdentityOwner(t *testing.T) {
	// p ranks, p buckets, splitters at multiples of 100: classic flat sort.
	const p = 4
	runWorld(t, p, func(c *comm.Comm) error {
		// Rank r holds keys r, r+100, r+200, r+300 — one per bucket.
		local := []int64{int64(c.Rank()), int64(c.Rank() + 100), int64(c.Rank() + 200), int64(c.Rank() + 300)}
		runs := Partition(local, []int64{100, 200, 300}, icmp)
		got, err := Exchange(c, 1, runs, ContiguousOwner(p, p))
		if err != nil {
			return err
		}
		merged := merge.KWay(got, icmp)
		want := []int64{int64(c.Rank() * 100), int64(c.Rank()*100 + 1), int64(c.Rank()*100 + 2), int64(c.Rank()*100 + 3)}
		if !slices.Equal(merged, want) {
			return fmt.Errorf("rank %d got %v, want %v", c.Rank(), merged, want)
		}
		return nil
	})
}

// TestExchangeForm pins the one routing step through the messages
// Exchange sends on sim: p−1 per rank at every world size, 16 included.
func TestExchangeForm(t *testing.T) {
	for _, p := range []int{15, 16} {
		w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
		if err := w.Run(func(c *comm.Comm) error {
			runs := make([][]int64, p)
			for b := range runs {
				runs[b] = []int64{int64(b)}
			}
			_, err := Exchange(c, 1, runs, ContiguousOwner(p, p))
			return err
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got, want := w.TotalCounters().MsgsSent, int64(p*(p-1)); got != want {
			t.Errorf("p=%d: %d messages, want %d", p, got, want)
		}
	}
}

func TestExchangeManyBucketsPerRank(t *testing.T) {
	// 8 buckets over 2 ranks with contiguous ownership: global sort order.
	const p = 2
	runWorld(t, p, func(c *comm.Comm) error {
		var local []int64
		for i := 0; i < 16; i++ {
			local = append(local, int64(i*2+c.Rank()))
		}
		splitters := []int64{4, 8, 12, 16, 20, 24, 28}
		runs := Partition(local, splitters, icmp)
		got, err := Exchange(c, 1, runs, ContiguousOwner(8, p))
		if err != nil {
			return err
		}
		merged := merge.KWay(got, icmp)
		var want []int64
		for i := c.Rank() * 16; i < (c.Rank()+1)*16; i++ {
			want = append(want, int64(i))
		}
		if !slices.Equal(merged, want) {
			return fmt.Errorf("rank %d got %v, want %v", c.Rank(), merged, want)
		}
		return nil
	})
}

func TestExchangeRoundRobinOwner(t *testing.T) {
	// Buckets 0..5 round-robin over 3 ranks: rank r receives buckets
	// r, r+3; its merged data is every key from those buckets.
	const p = 3
	runWorld(t, p, func(c *comm.Comm) error {
		// Global keys 0..59; bucket b owns [b*10, b*10+10). Rank r holds
		// the keys congruent to r mod 3.
		var local []int64
		for k := int64(c.Rank()); k < 60; k += 3 {
			local = append(local, k)
		}
		splitters := []int64{10, 20, 30, 40, 50}
		runs := Partition(local, splitters, icmp)
		got, err := Exchange(c, 1, runs, RoundRobinOwner(p))
		if err != nil {
			return err
		}
		merged := merge.KWay(got, icmp)
		var want []int64
		for _, b := range []int{c.Rank(), c.Rank() + 3} {
			for k := int64(b * 10); k < int64(b*10+10); k++ {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		if !slices.Equal(merged, want) {
			return fmt.Errorf("rank %d got %v, want %v", c.Rank(), merged, want)
		}
		return nil
	})
}

func TestExchangeBadOwner(t *testing.T) {
	w := comm.NewWorld(2, comm.WithTimeout(time.Second))
	err := w.Run(func(c *comm.Comm) error {
		runs := [][]int64{{1}, {2}}
		_, err := Exchange(c, 1, runs, func(int) int { return 7 })
		if err == nil {
			return fmt.Errorf("bad owner accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeSingleRank(t *testing.T) {
	runWorld(t, 1, func(c *comm.Comm) error {
		runs := Partition([]int64{1, 2, 3}, nil, icmp)
		got, err := Exchange(c, 1, runs, ContiguousOwner(1, 1))
		if err != nil {
			return err
		}
		if merged := merge.KWay(got, icmp); !slices.Equal(merged, []int64{1, 2, 3}) {
			return fmt.Errorf("got %v", merged)
		}
		return nil
	})
}

// TestExchangeEndToEndProperty: random shards, random splitters — the
// union of merged outputs across ranks equals the sorted input union, and
// every rank's data respects its bucket ranges.
func TestExchangeEndToEndProperty(t *testing.T) {
	f := func(seed uint32, pRaw uint8) bool {
		p := int(pRaw%5) + 1
		rng := rand.New(rand.NewPCG(uint64(seed), 11))
		shards := make([][]int64, p)
		var all []int64
		for r := range shards {
			n := rng.IntN(200)
			shards[r] = make([]int64, n)
			for i := range shards[r] {
				shards[r][i] = rng.Int64N(1000)
			}
			slices.Sort(shards[r])
			all = append(all, shards[r]...)
		}
		slices.Sort(all)
		splitters := make([]int64, p-1)
		for i := range splitters {
			splitters[i] = rng.Int64N(1000)
		}
		slices.Sort(splitters)
		outs := make([][]int64, p)
		w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
		err := w.Run(func(c *comm.Comm) error {
			runs := Partition(shards[c.Rank()], splitters, icmp)
			got, err := Exchange(c, 1, runs, ContiguousOwner(p, p))
			if err != nil {
				return err
			}
			outs[c.Rank()] = merge.KWay(got, icmp)
			return nil
		})
		if err != nil {
			return false
		}
		var cat []int64
		for r, out := range outs {
			if !slices.IsSorted(out) {
				return false
			}
			for _, k := range out {
				if r > 0 && k < splitters[r-1] {
					return false
				}
				if r < p-1 && k >= splitters[r] {
					return false
				}
			}
			cat = append(cat, out...)
		}
		return slices.Equal(cat, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
