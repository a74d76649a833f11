package main

import (
	"fmt"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/histsort"
	"hssort/internal/keycoder"
	"hssort/internal/tablefmt"
)

// runFig62 regenerates Fig 6.2: the ChaNGa sorting step — clustered
// Morton keys, virtual-processor buckets (more buckets than ranks,
// placed non-contiguously) — comparing HSS against classic histogram
// sort ("Old") on the Dwarf and Lambb dataset analogues, across
// processor counts with a fixed dataset size (strong scaling of the
// splitting cost). Both run the one skeleton on a world of the
// -transport backend, under the same buckets and round-robin placement
// (exchange.RoundRobinOwner), with HSS's and Old's splitter strategies.
func runFig62(scale float64) error {
	totalParticles := int(200000 * scale)
	if totalParticles < 20000 {
		totalParticles = 20000
	}
	t := tablefmt.New("dataset", "p", "buckets", "HSS time", "HSS split", "HSS rounds", "Old time", "Old split", "Old rounds")
	for _, ds := range Datasets {
		for _, p := range []int{4, 8, 16, 32} {
			buckets := 4 * p // virtual processors outnumber cores (§6.3)
			shards := make([][]uint64, p)
			for r := 0; r < p; r++ {
				shards[r] = ShardKeys(ds, totalParticles, r, p, 77)
			}
			opt := coded[uint64](keycoder.Uint64{}, p)
			opt.Epsilon, opt.Buckets, opt.Owner, opt.Seed = 0.05, buckets, exchange.RoundRobinOwner(p), 5
			_, hssStats, _, err := onWorld(cloneShards(shards), func(c *comm.Comm, local []uint64) ([]uint64, core.Stats, error) {
				return core.Sort(c, local, opt)
			})
			if err != nil {
				return fmt.Errorf("%s p=%d HSS: %w", ds.Name, p, err)
			}
			_, oldStats, _, err := onWorld(cloneShards(shards), func(c *comm.Comm, local []uint64) ([]uint64, core.Stats, error) {
				return histsort.Sort(c, local, opt, histsort.Options[uint64]{Coder: keycoder.Uint64{}})
			})
			if err != nil {
				return fmt.Errorf("%s p=%d Old: %w", ds.Name, p, err)
			}
			t.AddRow(
				ds.Name,
				fmt.Sprintf("%d", p),
				fmt.Sprintf("%d", buckets),
				hssStats.Total().Round(time.Millisecond).String(),
				hssStats.Splitter.Round(100*time.Microsecond).String(),
				fmt.Sprintf("%d", hssStats.Rounds),
				oldStats.Total().Round(time.Millisecond).String(),
				oldStats.Splitter.Round(100*time.Microsecond).String(),
				fmt.Sprintf("%d", oldStats.Rounds),
			)
		}
	}
	fmt.Printf("ChaNGa sorting step, %s particles per dataset:\n\n", tablefmt.Count(float64(totalParticles)))
	fmt.Print(t.String())
	fmt.Println("\nPaper (Fig 6.2): HSS below Old at every p on both datasets (the round")
	fmt.Println("count gap — a handful vs dozens of synchronous probe rounds — is the")
	fmt.Println("mechanism); time grows with p for a fixed dataset because bucket count")
	fmt.Println("(and splitting work) grows multiplicatively with the processor count.")
	return nil
}

func cloneShards[K any](shards [][]K) [][]K {
	out := make([][]K, len(shards))
	for i, s := range shards {
		out[i] = append([]K(nil), s...)
	}
	return out
}
