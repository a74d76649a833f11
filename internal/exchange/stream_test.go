package exchange

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/keycoder"
	"hssort/internal/merge"
	"hssort/internal/spill"
)

// TestExchangeAccounting pins the wire-size model: every message —
// including empty ones, which still pay the §5.1 latency term — charges
// MsgHeaderBytes, plus RunHeaderBytes and the payload per carried run.
func TestExchangeAccounting(t *testing.T) {
	const p = 3
	shards := [][]int64{{0, 1, 12}, {5, 15, 25}, {21, 22}}
	splitters := []int64{10, 20}
	w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		runs := Partition(shards[c.Rank()], splitters, icmp)
		_, err := Exchange(c, 1, runs, ContiguousOwner(p, p))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-rank non-local runs: rank 0 sends {12} to 1 and nothing to 2;
	// rank 1 sends {5} to 0 and {25} to 2; rank 2 sends two empty
	// messages. 6 messages total, 3 of them carrying one run each.
	wantBytes := int64(6*MsgHeaderBytes + 3*(RunHeaderBytes+8))
	total := w.TotalCounters()
	if total.MsgsSent != 6 {
		t.Errorf("MsgsSent = %d, want 6", total.MsgsSent)
	}
	if total.BytesSent != wantBytes {
		t.Errorf("BytesSent = %d, want %d", total.BytesSent, wantBytes)
	}
	if total.BytesRecv != wantBytes {
		t.Errorf("BytesRecv = %d, want %d (all sent traffic delivered)", total.BytesRecv, wantBytes)
	}
}

// pair is a key with a hidden identity: cmp orders by k only, so
// duplicate keys from different origins are distinguishable in the
// output — any tie-break divergence between the exchange paths shows up
// as an id mismatch.
type pair struct{ k, id int64 }

func pairCmp(a, b pair) int { return cmp.Compare(a.k, b.k) }

// streamCase runs one shard set through both data-movement paths on one
// backend and requires rank-identical output, plus the in-flight bound.
func streamCase(t *testing.T, mk func(p int) comm.Transport, shards [][]pair, buckets int, owner func(int) int, opt StreamOptions) {
	t.Helper()
	p := len(shards)
	splitters := make([]pair, buckets-1)
	// Evenly spaced splitters over the observed key range, some duplicated.
	var all []pair
	for _, s := range shards {
		all = append(all, s...)
	}
	slices.SortFunc(all, pairCmp)
	for i := range splitters {
		if len(all) == 0 {
			splitters[i] = pair{}
			continue
		}
		splitters[i] = pair{k: all[(i+1)*len(all)/buckets%len(all)].k}
	}
	slices.SortFunc(splitters, pairCmp)

	outM := make([][]pair, p)
	w := comm.NewWorld(p, comm.WithTransport(mk(p)), comm.WithTimeout(20*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		runs := Partition(slices.Clone(shards[c.Rank()]), splitters, pairCmp)
		recv, err := Exchange(c, 1, runs, owner)
		if err != nil {
			return err
		}
		outM[c.Rank()] = merge.KWay(recv, pairCmp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	outS := make([][]pair, p)
	stats := make([]StreamStats, p)
	w = comm.NewWorld(p, comm.WithTransport(mk(p)), comm.WithTimeout(20*time.Second))
	err = w.Run(func(c *comm.Comm) error {
		runs := Partition(slices.Clone(shards[c.Rank()]), splitters, pairCmp)
		out, st, err := ExchangeStream(c, 1, runs, owner, pairCmp, nil, opt, nil)
		if err != nil {
			return err
		}
		outS[c.Rank()] = out
		stats[c.Rank()] = st
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Third pass: the same streaming exchange on the code plane (records
	// merged by an order-preserving extractor instead of the comparator).
	// Identical output, duplicate ids included: equal keys have equal
	// codes and both planes tie-break by sender run.
	outC := make([][]pair, p)
	w = comm.NewWorld(p, comm.WithTransport(mk(p)), comm.WithTimeout(20*time.Second))
	err = w.Run(func(c *comm.Comm) error {
		runs := Partition(slices.Clone(shards[c.Rank()]), splitters, pairCmp)
		out, _, err := ExchangeStream(c, 1, runs, owner, pairCmp,
			func(x pair) uint64 { return keycoder.Int64{}.Encode(x.k) }, opt, nil)
		if err != nil {
			return err
		}
		outC[c.Rank()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	budget := int64(p-1) * DefaultStreamWindow * int64(cmp.Or(opt.ChunkKeys, DefaultChunkKeys)) * comm.SizeOf[pair]()
	for r := 0; r < p; r++ {
		if !slices.Equal(outM[r], outS[r]) {
			t.Fatalf("rank %d: streaming output diverged from materializing path (%d vs %d keys)", r, len(outS[r]), len(outM[r]))
		}
		if !slices.Equal(outM[r], outC[r]) {
			t.Fatalf("rank %d: code-plane streaming output diverged (%d vs %d keys)", r, len(outC[r]), len(outM[r]))
		}
		if stats[r].PeakInFlight > budget {
			t.Errorf("rank %d: peak in-flight %d exceeds budget %d", r, stats[r].PeakInFlight, budget)
		}
	}
}

// TestExchangeStreamEquivalence sweeps world sizes, ownership maps and
// chunk sizes on both transports: the streaming pipeline
// must be output-identical to Exchange + KWay, duplicates included.
func TestExchangeStreamEquivalence(t *testing.T) {
	backends := []struct {
		name string
		mk   func(p int) comm.Transport
	}{
		{"sim", func(p int) comm.Transport { return comm.NewSimTransport(p) }},
		{"inproc", func(p int) comm.Transport { return comm.NewInprocTransport(p) }},
	}
	type shape struct {
		name    string
		p       int
		buckets int
		owner   func(buckets, p int) func(int) int
	}
	contig := func(b, p int) func(int) int { return ContiguousOwner(b, p) }
	rr := func(b, p int) func(int) int { return RoundRobinOwner(p) }
	shapes := []shape{
		{"p1", 1, 1, contig},
		{"p2", 2, 2, contig},
		{"p5-flat", 5, 5, contig},
		{"p4-overpart", 4, 12, contig},
		{"p3-roundrobin", 3, 9, rr},
		// The world sizes at which a materializing sort runs two levels
		// and a streaming one stays flat.
		{"p16-flat", 16, 16, contig},
		{"p256-flat", 256, 256, contig},
	}
	opts := []StreamOptions{
		{ChunkKeys: 1}, // worst case: every key its own message
		{ChunkKeys: 7},
		{ChunkKeys: 1 << 16}, // one chunk per run
	}
	for _, be := range backends {
		for _, sh := range shapes {
			for oi, opt := range opts {
				if sh.p == 256 && (be.name != "sim" || oi > 0) {
					// Its 65 280 streams cost a second under -race, and
					// with a few keys per rank every chunk size sends
					// the same: one run of one-key chunks.
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/opt%d", be.name, sh.name, oi), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(sh.p)*1000+uint64(oi), 99))
					shards := make([][]pair, sh.p)
					id := int64(0)
					for r := range shards {
						// Under 2 000 keys in all at the larger
						// world sizes, so every-key chunks stay cheap.
						n := rng.IntN(min(300, 2000/sh.p))
						shards[r] = make([]pair, n)
						for i := range shards[r] {
							// Small key range: lots of cross-rank duplicates,
							// yet enough keys to fill most buckets.
							shards[r][i] = pair{k: rng.Int64N(max(40, 4*int64(sh.p))), id: id}
							id++
						}
						slices.SortFunc(shards[r], pairCmp)
					}
					streamCase(t, be.mk, shards, sh.buckets, sh.owner(sh.buckets, sh.p), opt)
				})
			}
		}
	}
}

// TestExchangeStreamEmptyAndSkewed covers degenerate loads: some ranks
// empty, all data on one rank, empty world-wide buckets.
func TestExchangeStreamEmptyAndSkewed(t *testing.T) {
	mk := func(p int) comm.Transport { return comm.NewSimTransport(p) }
	t.Run("all-empty", func(t *testing.T) {
		shards := make([][]pair, 4)
		streamCase(t, mk, shards, 4, ContiguousOwner(4, 4), StreamOptions{ChunkKeys: 4})
	})
	t.Run("one-loaded", func(t *testing.T) {
		shards := make([][]pair, 4)
		for i := 0; i < 100; i++ {
			shards[2] = append(shards[2], pair{k: int64(i % 13), id: int64(i)})
		}
		slices.SortFunc(shards[2], pairCmp)
		streamCase(t, mk, shards, 4, ContiguousOwner(4, 4), StreamOptions{ChunkKeys: 8})
	})
}

// TestExchangeStreamBadOwner mirrors the materializing path's owner
// validation.
func TestExchangeStreamBadOwner(t *testing.T) {
	w := comm.NewWorld(2, comm.WithTimeout(time.Second))
	err := w.Run(func(c *comm.Comm) error {
		runs := [][]int64{{1}, {2}}
		_, _, err := ExchangeStream(c, 1, runs, func(int) int { return 7 }, icmp, nil, StreamOptions{}, nil)
		if err == nil {
			return fmt.Errorf("bad owner accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamAllEqualKeysLiveness: when every key is equal — and then
// when there are just two values — the batch drain's safe bound sits on
// a duplicate span in every stream at once, so liveness rests on the
// run-index half of the bound (equal keys of runs up to the bounding one
// are ready). With two-chunk windows of four keys every sender stalls
// until the receiver's merge consumes a whole chunk; a drain that held
// the duplicates back would deadlock the exchange. Each case must finish
// well inside the deadline, rank-identical to the materializing path.
func TestStreamAllEqualKeysLiveness(t *testing.T) {
	backends := []struct {
		name string
		mk   func(p int) comm.Transport
	}{
		{"sim", func(p int) comm.Transport { return comm.NewSimTransport(p) }},
		{"inproc", func(p int) comm.Transport { return comm.NewInprocTransport(p) }},
	}
	for _, be := range backends {
		for _, p := range []int{8, 64} {
			for _, values := range []int64{1, 2} {
				t.Run(fmt.Sprintf("%s/p%d/values=%d", be.name, p, values), func(t *testing.T) {
					shards := make([][]pair, p)
					id := int64(0)
					for r := range shards {
						shards[r] = make([]pair, 40+r%7)
						for i := range shards[r] {
							shards[r][i] = pair{k: 5 + int64(i)*values/int64(len(shards[r])), id: id}
							id++
						}
					}
					start := time.Now()
					streamCase(t, be.mk, shards, p, ContiguousOwner(p, p), StreamOptions{ChunkKeys: 4})
					if d := time.Since(start); d > 10*time.Second {
						t.Fatalf("took %v, deadline 10s", d)
					}
				})
			}
		}
	}
}

// TestExchangeMergeBudgetStreams runs ExchangeMerge with ChunkKeys 0 and
// a memory budget below one incoming stream, on sim and on loopback
// sockets: a budget selects the streaming exchange, so every stream
// diverts to disk through chunks the meter charges, and the output
// still equals Exchange + KWay. The meter must end at zero and the
// spill directory empty.
func TestExchangeMergeBudgetStreams(t *testing.T) {
	const p, perRank = 4, 4000
	backends := []struct {
		name string
		mk   func(t *testing.T) comm.Transport
	}{
		{"sim", func(*testing.T) comm.Transport { return comm.NewSimTransport(p) }},
		{"tcp", func(t *testing.T) comm.Transport {
			tr, err := comm.NewTCPLoopback(p)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			return tr
		}},
	}
	rng := rand.New(rand.NewPCG(5, 6))
	shards := make([][]int64, p)
	for r := range shards {
		shards[r] = make([]int64, perRank)
		for i := range shards[r] {
			shards[r][i] = rng.Int64N(1 << 20)
		}
		slices.Sort(shards[r])
	}
	splitters := []int64{1 << 18, 2 << 18, 3 << 18}
	owner := ContiguousOwner(p, p)
	// An incoming stream is about perRank/p keys; half of one fits.
	const budget = perRank / p * 8 / 2
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			want := make([][]int64, p)
			w := comm.NewWorld(p, comm.WithTransport(be.mk(t)), comm.WithTimeout(20*time.Second))
			if err := w.Run(func(c *comm.Comm) error {
				recv, err := Exchange(c, 1, Partition(shards[c.Rank()], splitters, icmp), owner)
				want[c.Rank()] = merge.KWay(recv, icmp)
				return err
			}); err != nil {
				t.Fatal(err)
			}

			mgrs := make([]*spill.Manager, p)
			for r := range mgrs {
				m, err := spill.NewManager(budget, t.TempDir(), r)
				if err != nil {
					t.Fatal(err)
				}
				mgrs[r] = m
			}
			got := make([][]int64, p)
			stats := make([]StreamStats, p)
			w = comm.NewWorld(p, comm.WithTransport(be.mk(t)), comm.WithTimeout(20*time.Second))
			if err := w.Run(func(c *comm.Comm) error {
				r := c.Rank()
				out, _, _, st, err := ExchangeMerge(c, 1, Partition(shards[r], splitters, icmp), owner, icmp, nil,
					StreamOptions{Spill: mgrs[r]}, nil)
				got[r], stats[r] = out, st
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for r, m := range mgrs {
				if !slices.Equal(got[r], want[r]) {
					t.Errorf("rank %d: output differs from Exchange + KWay (%d vs %d keys)", r, len(got[r]), len(want[r]))
				}
				if stats[r].ChunksSent == 0 {
					t.Errorf("rank %d sent no chunks: the budget did not select the streaming exchange", r)
				}
				if st := m.TakeCounters(); st.SpilledBytes == 0 {
					t.Errorf("rank %d spilled nothing under a %d-byte budget", r, budget)
				}
				if room := m.Room(); room != budget {
					t.Errorf("rank %d: meter holds %d bytes after the merge", r, budget-room)
				}
				if ents, err := os.ReadDir(m.Dir()); err != nil || len(ents) != 0 {
					t.Errorf("rank %d: %d run files left (%v)", r, len(ents), err)
				}
			}
		})
	}
}
