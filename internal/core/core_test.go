package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/keycoder"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

// runSort sorts the given shards with opt and returns per-rank outputs
// and the stats observed on rank 0.
func runSort(t testing.TB, shards [][]int64, opt Options[int64]) ([][]int64, Stats) {
	t.Helper()
	p := len(shards)
	outs := make([][]int64, p)
	var stats Stats
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := Sort(c, shards[c.Rank()], opt)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		if c.Rank() == 0 {
			stats = st
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats
}

// checkGloballySorted verifies the outputs form the sorted permutation of
// the inputs in rank order.
func checkGloballySorted(t *testing.T, shards, outs [][]int64) {
	t.Helper()
	var want []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	var got []int64
	for r, out := range outs {
		if !slices.IsSorted(out) {
			t.Fatalf("rank %d output not locally sorted", r)
		}
		got = append(got, out...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("output is not the sorted permutation of the input (got %d keys, want %d)", len(got), len(want))
	}
}

func TestSortUniformAllSchedules(t *testing.T) {
	const p, perRank = 8, 2000
	for _, sched := range []Schedule{FixedOversampling, Theoretical, OneRoundScanning} {
		spec := dist.Spec{Kind: dist.Uniform}
		shards := spec.Shards(perRank, p, 42)
		// Clone: runSort consumes the shards.
		in := make([][]int64, p)
		for i := range shards {
			in[i] = slices.Clone(shards[i])
		}
		outs, stats := runSort(t, in, Options[int64]{Cmp: icmp, Epsilon: 0.1, Schedule: sched, Seed: 7})
		checkGloballySorted(t, shards, outs)
		if stats.Imbalance > 1.1+1e-9 {
			t.Errorf("%v: imbalance %.4f exceeds 1+eps", sched, stats.Imbalance)
		}
		if stats.N != p*perRank {
			t.Errorf("%v: N = %d", sched, stats.N)
		}
		if sched == OneRoundScanning && stats.Rounds != 1 {
			t.Errorf("scanning took %d rounds, want 1", stats.Rounds)
		}
	}
}

func TestSortSkewedDistributions(t *testing.T) {
	const p, perRank = 6, 1500
	for _, kind := range []dist.Kind{dist.Gaussian, dist.Exponential, dist.PowerSkew, dist.Staircase, dist.AlmostSorted} {
		spec := dist.Spec{Kind: kind}
		shards := spec.Shards(perRank, p, 11)
		in := make([][]int64, p)
		for i := range shards {
			in[i] = slices.Clone(shards[i])
		}
		outs, stats := runSort(t, in, Options[int64]{Cmp: icmp, Epsilon: 0.1, Seed: 3})
		checkGloballySorted(t, shards, outs)
		if stats.Imbalance > 1.1+1e-9 {
			t.Errorf("%v: imbalance %.4f exceeds 1+eps", kind, stats.Imbalance)
		}
	}
}

func TestSortSingleRank(t *testing.T) {
	shards := [][]int64{{5, 3, 1, 4, 2}}
	outs, stats := runSort(t, [][]int64{slices.Clone(shards[0])}, Options[int64]{Cmp: icmp})
	checkGloballySorted(t, shards, outs)
	if stats.Imbalance != 1 {
		t.Errorf("single-rank imbalance %f", stats.Imbalance)
	}
}

func TestSortEmptyInput(t *testing.T) {
	shards := [][]int64{{}, {}, {}}
	outs, _ := runSort(t, shards, Options[int64]{Cmp: icmp})
	for r, out := range outs {
		if len(out) != 0 {
			t.Errorf("rank %d got %v from empty input", r, out)
		}
	}
}

func TestSortUnevenShards(t *testing.T) {
	// §2.1: uneven input divisions are supported.
	shards := [][]int64{
		dist.Spec{Kind: dist.Uniform}.Shard(3000, 0, 4, 5),
		{},
		dist.Spec{Kind: dist.Uniform}.Shard(10, 2, 4, 5),
		dist.Spec{Kind: dist.Uniform}.Shard(1500, 3, 4, 5),
	}
	in := make([][]int64, len(shards))
	for i := range shards {
		in[i] = slices.Clone(shards[i])
	}
	outs, stats := runSort(t, in, Options[int64]{Cmp: icmp, Epsilon: 0.1})
	checkGloballySorted(t, shards, outs)
	if stats.Imbalance > 1.1+1e-9 {
		t.Errorf("imbalance %.4f", stats.Imbalance)
	}
}

func TestSortManyBucketsPerRank(t *testing.T) {
	// B = 4p buckets with contiguous ownership: still a global sort,
	// with finer splitters (the ChaNGa virtual-processor regime).
	const p, perRank = 4, 2000
	spec := dist.Spec{Kind: dist.Uniform}
	shards := spec.Shards(perRank, p, 9)
	in := make([][]int64, p)
	for i := range shards {
		in[i] = slices.Clone(shards[i])
	}
	outs, stats := runSort(t, in, Options[int64]{Cmp: icmp, Epsilon: 0.1, Buckets: 4 * p})
	checkGloballySorted(t, shards, outs)
	if stats.Buckets != 4*p {
		t.Errorf("stats.Buckets = %d", stats.Buckets)
	}
}

func TestSortRoundRobinOwner(t *testing.T) {
	// Non-contiguous placement (§6.3): output is not globally sorted in
	// rank order, but each rank's data is sorted and the union matches.
	const p, perRank = 4, 1000
	spec := dist.Spec{Kind: dist.Uniform}
	shards := spec.Shards(perRank, p, 13)
	in := make([][]int64, p)
	for i := range shards {
		in[i] = slices.Clone(shards[i])
	}
	buckets := 2 * p
	outs, _ := runSort(t, in, Options[int64]{
		Cmp: icmp, Epsilon: 0.1, Buckets: buckets,
		Owner: exchange.RoundRobinOwner(p),
	})
	var got []int64
	for r, out := range outs {
		if !slices.IsSorted(out) {
			t.Fatalf("rank %d output not sorted", r)
		}
		got = append(got, out...)
	}
	var want []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatal("round-robin outputs are not a permutation of the input")
	}
}

// TestSortTheoreticalHonoursRounds: the k-round schedule takes k from
// Options.Rounds in a real sort. It finishes within k+1 rounds, and a
// smaller k draws a denser first round: ratio (2 ln B/ε)^(1/k).
func TestSortTheoreticalHonoursRounds(t *testing.T) {
	const p, perRank = 8, 3000
	shards := dist.Spec{Kind: dist.PowerSkew}.Shards(perRank, p, 23)
	first := map[int]int64{}
	for _, k := range []int{1, 3} {
		outs, stats := runSort(t, cloneAll(shards), Options[int64]{Cmp: icmp, Epsilon: 0.1, Schedule: Theoretical, Rounds: k, Seed: 3})
		checkGloballySorted(t, shards, outs)
		if stats.Rounds < 1 || stats.Rounds > k+1 {
			t.Errorf("k=%d: %d rounds", k, stats.Rounds)
		}
		if stats.Imbalance > 1.1+1e-9 {
			t.Errorf("k=%d: imbalance %.4f exceeds 1+eps", k, stats.Imbalance)
		}
		first[k] = stats.SamplePerRound[0]
	}
	if first[1] <= first[3] {
		t.Errorf("first-round sample %d at k=1, %d at k=3: want k=1 denser", first[1], first[3])
	}
}

// TestSortScanningRunsColdOnRejectedSeed: the one-round scanning
// schedule picks its splitters from one sample of the whole range, so a
// rejected seed's round 0 must not change its protocol: same rounds,
// samples and output as the unseeded sort.
func TestSortScanningRunsColdOnRejectedSeed(t *testing.T) {
	const p, perRank = 6, 2000
	shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, 31)
	opt := Options[int64]{Cmp: icmp, Epsilon: 0.1, Schedule: OneRoundScanning, Seed: 9}
	coldOuts, cold := runSort(t, cloneAll(shards), opt)
	// Seed splitters 1..p-1 put every key in the last bucket.
	opt.Splitters = []int64{1, 2, 3, 4, 5}
	outs, seeded := runSort(t, cloneAll(shards), opt)
	checkGloballySorted(t, shards, outs)
	if seeded.Rounds != 1 || seeded.Rounds != cold.Rounds || !slices.Equal(seeded.SamplePerRound, cold.SamplePerRound) {
		t.Errorf("seeded scanning ran %d rounds, samples %v; cold %d, %v", seeded.Rounds, seeded.SamplePerRound, cold.Rounds, cold.SamplePerRound)
	}
	for r := range outs {
		if !slices.Equal(outs[r], coldOuts[r]) {
			t.Fatalf("rank %d: the rejected seed changed the partition", r)
		}
	}
}

// cloneAll copies shards: runSort consumes its input.
func cloneAll(shards [][]int64) [][]int64 {
	out := make([][]int64, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}

func TestSortMassDuplicatesTerminates(t *testing.T) {
	// All keys equal: splitters cannot meet their windows, so the
	// fallback must fire — the sort still returns sorted output instead
	// of hanging (§4.3 motivates tagging for good balance here).
	const p = 4
	shards := make([][]int64, p)
	for r := range shards {
		shards[r] = make([]int64, 500)
		for i := range shards[r] {
			shards[r][i] = 7
		}
	}
	in := make([][]int64, p)
	for i := range shards {
		in[i] = slices.Clone(shards[i])
	}
	outs, _ := runSort(t, in, Options[int64]{Cmp: icmp, Epsilon: 0.05, maxRounds: 6})
	checkGloballySorted(t, shards, outs)
}

func TestSortRejectsMissingCmp(t *testing.T) {
	w := comm.NewWorld(2, comm.WithTimeout(5*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		_, _, err := Sort(c, []int64{1}, Options[int64]{})
		if err == nil {
			return fmt.Errorf("missing Cmp accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDetermineSplittersAgreeAcrossRanks(t *testing.T) {
	const p, perRank = 5, 2000
	spec := dist.Spec{Kind: dist.Gaussian}
	shards := spec.Shards(perRank, p, 23)
	all := make([][]int64, p)
	w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		local := slices.Clone(shards[c.Rank()])
		slices.Sort(local)
		sp, info, err := DetermineSplitters(c, local, int64(p*perRank), Options[int64]{Cmp: icmp, Epsilon: 0.05})
		if err != nil {
			return err
		}
		if !info.Finalized {
			return fmt.Errorf("rank %d: not finalized", c.Rank())
		}
		if info.Rounds < 1 || info.TotalSample <= 0 {
			return fmt.Errorf("rank %d: bogus info %+v", c.Rank(), info)
		}
		all[c.Rank()] = sp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if !slices.Equal(all[r], all[0]) {
			t.Fatalf("rank %d splitters differ from rank 0", r)
		}
	}
	if len(all[0]) != p-1 {
		t.Fatalf("got %d splitters, want %d", len(all[0]), p-1)
	}
	if !slices.IsSorted(all[0]) {
		t.Fatal("splitters not sorted")
	}
}

func TestSortStatsShape(t *testing.T) {
	const p, perRank = 4, 3000
	spec := dist.Spec{Kind: dist.Uniform}
	shards := spec.Shards(perRank, p, 31)
	_, stats := runSort(t, shards, Options[int64]{Cmp: icmp, Epsilon: 0.05})
	if stats.Rounds < 1 || stats.Rounds > 20 {
		t.Errorf("rounds = %d", stats.Rounds)
	}
	if len(stats.SamplePerRound) != stats.Rounds {
		t.Errorf("SamplePerRound len %d vs rounds %d", len(stats.SamplePerRound), stats.Rounds)
	}
	if stats.TotalSample <= 0 {
		t.Error("no samples counted")
	}
	if stats.SplitterBytes <= 0 || stats.ExchangeBytes <= 0 {
		t.Errorf("byte counters: splitter %d exchange %d", stats.SplitterBytes, stats.ExchangeBytes)
	}
	// Data exchange moves ~N keys; splitter traffic should be far less
	// (the whole point of the paper).
	if stats.SplitterBytes > stats.ExchangeBytes {
		t.Errorf("splitter bytes %d exceed exchange bytes %d", stats.SplitterBytes, stats.ExchangeBytes)
	}
	if stats.Total() <= 0 {
		t.Error("zero total time")
	}
}

// TestSortProperty: random shard sizes, range, p, and schedule — output is
// always the sorted permutation.
func TestSortProperty(t *testing.T) {
	f := func(seed uint32, pRaw, schedRaw uint8) bool {
		p := int(pRaw%6) + 1
		sched := Schedule(schedRaw % 3)
		spec := dist.Spec{Kind: dist.Kind(seed % 6), Min: 0, Max: 1 << 20}
		shards := make([][]int64, p)
		for r := range shards {
			n := int(seed%997) + 50
			shards[r] = spec.Shard(n, r, p, uint64(seed))
		}
		in := make([][]int64, p)
		for i := range shards {
			in[i] = slices.Clone(shards[i])
		}
		outs := make([][]int64, p)
		w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
		err := w.Run(func(c *comm.Comm) error {
			out, _, err := Sort(c, in[c.Rank()], Options[int64]{
				Cmp: icmp, Epsilon: 0.2, Schedule: sched, Seed: uint64(seed) + 1,
			})
			outs[c.Rank()] = out
			return err
		})
		if err != nil {
			t.Log(err)
			return false
		}
		var want, got []int64
		for _, s := range shards {
			want = append(want, s...)
		}
		slices.Sort(want)
		for _, o := range outs {
			if !slices.IsSorted(o) {
				return false
			}
			got = append(got, o...)
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSortViaCoder: the decorated Options.Code extractor plane (radix
// local sort, code-keyed partition cuts and merges) must be
// rank-identical to the comparator plane and run the identical protocol
// — with both the materializing and the streaming exchange. (The
// bijective encode-once/decode-once plane lives in the root engine; its
// equivalence matrix is the root TestCodePathEquivalence*.)
func TestSortViaCoder(t *testing.T) {
	const p, perRank = 6, 3000
	for _, chunkKeys := range []int{0, 256} {
		shards := dist.Spec{Kind: dist.PowerSkew}.Shards(perRank, p, 77)
		clone := func() [][]int64 {
			in := make([][]int64, p)
			for r := range shards {
				in[r] = slices.Clone(shards[r])
			}
			return in
		}
		base := Options[int64]{Cmp: icmp, Epsilon: 0.1, Seed: 5, ChunkKeys: chunkKeys}

		wantOuts, wantStats := runSort(t, clone(), base)

		decorated := base
		decorated.Code = func(k int64) uint64 { return keycoder.Int64{}.Encode(k) }
		gotOuts, gotStats := runSort(t, clone(), decorated)

		for r := range wantOuts {
			if !slices.Equal(gotOuts[r], wantOuts[r]) {
				t.Fatalf("chunk=%d rank %d: Code extractor plane diverged from comparator plane", chunkKeys, r)
			}
		}
		if gotStats.Rounds != wantStats.Rounds || gotStats.TotalSample != wantStats.TotalSample {
			t.Errorf("chunk=%d: protocol diverged: %d rounds/%d sample vs %d/%d",
				chunkKeys, gotStats.Rounds, gotStats.TotalSample, wantStats.Rounds, wantStats.TotalSample)
		}
		checkGloballySorted(t, shards, gotOuts)
	}
}
