package exchange

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"hssort/internal/comm"
)

// BenchmarkPartition measures cutting a sorted shard into B runs.
func BenchmarkPartition(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewPCG(1, 2))
	sorted := make([]int64, 1<<20)
	for i := range sorted {
		sorted[i] = rng.Int64()
	}
	slices.Sort(sorted)
	splitters := make([]int64, 1023)
	for i := range splitters {
		splitters[i] = rng.Int64()
	}
	slices.Sort(splitters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(sorted, splitters, icmp)
	}
}

// BenchmarkExchange measures the full data-movement step — personalized
// all-to-all plus k-way merge — comparing the materializing path against
// the streaming pipeline on three shapes:
//
//   - data-bound: few ranks, big shards; merge work dominates. The
//     streaming path must hold parity here (its chunk protocol adds
//     messages but removes the full-materialization barrier).
//   - comm-bound flat: p = 64 microshards; per-message costs dominate,
//     the regime of the paper's real processor counts.
//   - comm-bound over-partitioned (B = 4p, the §6.3 ChaNGa regime):
//     streaming's structural advantage — it merges p per-sender streams
//     instead of sorting and merging B·p (bucket, sender) runs, so the
//     merge takes fewer passes and the post-receive sort disappears.
//
// Caveat for reading results: on hosts with fewer cores than ranks the
// simulated "communication" time is CPU time in disguise, so
// send/merge overlap cannot shorten wall clock (there is no idle to
// hide work in) and only structural savings show up. On real networks —
// and on hosts with cores to spare — the overlap term §6.2 describes
// comes on top.
func BenchmarkExchange(b *testing.B) {
	b.ReportAllocs()
	shapes := []struct {
		name       string
		p, perRank int
		overpart   int // buckets per rank (1 = flat)
	}{
		{"data-bound/p=16/n=262144", 16, 1 << 18, 1},
		{"comm-bound/p=64/n=2048", 64, 1 << 11, 1},
		{"comm-bound/p=64/B=256/n=2048", 64, 1 << 11, 4},
	}
	paths := []struct {
		name string
		opt  StreamOptions
	}{
		{"materializing", StreamOptions{}},
		{"streaming", StreamOptions{ChunkKeys: DefaultChunkKeys}},
		{"streaming/c=4Ki", StreamOptions{ChunkKeys: 4 << 10}},
	}
	for _, shape := range shapes {
		p := shape.p
		buckets := p * shape.overpart
		splitters := make([]int64, buckets-1)
		for i := range splitters {
			splitters[i] = int64(i+1) << (63 - bits(buckets))
		}
		shards := make([][]int64, p)
		rng := rand.New(rand.NewPCG(3, 4))
		for r := range shards {
			shards[r] = make([]int64, shape.perRank)
			for i := range shards[r] {
				shards[r][i] = rng.Int64() // non-negative by contract
			}
			slices.Sort(shards[r])
		}
		owner := ContiguousOwner(buckets, p)
		for _, path := range paths {
			b.Run(shape.name+"/"+path.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					w := comm.NewWorld(p, comm.WithTimeout(time.Minute))
					err := w.Run(func(c *comm.Comm) error {
						runs := Partition(shards[c.Rank()], splitters, icmp)
						_, _, _, _, err := ExchangeMerge(c, 1, runs, owner, icmp, nil, path.opt, nil)
						return err
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(p * shape.perRank * 8))
			})
		}
	}
}

// bits returns floor(log2 p) for the splitter spacing above.
func bits(p int) int {
	n := 0
	for 1<<n < p {
		n++
	}
	return n
}
