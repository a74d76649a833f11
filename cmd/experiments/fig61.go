package main

import (
	"fmt"
	"time"

	"hssort"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/keycoder"
	"hssort/internal/tablefmt"
)

// runFig61 regenerates Fig 6.1: HSS weak scaling with the per-phase
// execution-time breakdown (local sort / histogramming / data exchange).
// The paper runs 512–32K cores with 1M 8-byte keys + 4-byte payload per
// core on Mira; we sort the same record shape over simulated ranks at
// laptop scale with a fixed per-rank load, so the phase *fractions* and
// their trend with p are the comparable quantities. The §6.1 node-sort
// table (runNodeSort) follows.
func runFig61(scale float64) error {
	perRank := int(100000 * scale)
	if perRank < 5000 {
		perRank = 5000
	}
	t := tablefmt.New("p", "N", "local sort", "histogramming", "data exchange+merge", "total", "hist %", "rounds", "imbalance")
	for _, p := range []int{4, 8, 16, 32, 64} {
		spec := dist.Spec{Kind: dist.Uniform}
		keyShards := spec.Shards(perRank, p, 42)
		// The paper's records: 8-byte integer key + 4-byte payload.
		shards := make([][]hssort.KV[int64, uint32], p)
		for r, ks := range keyShards {
			shards[r] = make([]hssort.KV[int64, uint32], len(ks))
			for i, k := range ks {
				shards[r][i] = hssort.KV[int64, uint32]{Key: k, Val: uint32(i)}
			}
		}
		_, stats, err := hssort.SortKV(hssort.Config{Procs: p, Epsilon: 0.02, Seed: 7, Transport: transport}, shards)
		if err != nil {
			return err
		}
		exchange := stats.Exchange + stats.Merge
		total := stats.Total()
		t.AddRow(
			fmt.Sprintf("%d", p),
			tablefmt.Count(float64(stats.N)),
			stats.LocalSort.Round(time.Millisecond).String(),
			stats.Splitter.Round(time.Millisecond).String(),
			exchange.Round(time.Millisecond).String(),
			total.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", 100*float64(stats.Splitter)/float64(total)),
			fmt.Sprintf("%d", stats.Rounds),
			fmt.Sprintf("%.4f", stats.Imbalance),
		)
	}
	fmt.Printf("HSS weak scaling, %s records (8B key + 4B payload) per rank, eps = 0.02:\n\n", tablefmt.Count(float64(perRank)))
	fmt.Print(t.String())
	fmt.Println("\nFrom p = 16 the sort runs in two levels (core.Levels): its rounds are")
	fmt.Println("level 1's plus level 2's, and every key moves twice.")
	fmt.Println("\nPaper (Fig 6.1): the histogramming phase is a small fraction of the")
	fmt.Println("total at every scale; data exchange dominates as p grows.")
	return runNodeSort(scale)
}

// runNodeSort is §6.1's node-level partitioning beside flat HSS: the
// same int64 keys sorted by core.Sort at ε = 0.05 flat over p buckets
// and in core's two levels (core.Levels), whose groups at these (p, c)
// are c consecutive ranks, as a node's cores are. Level 1 partitions
// across the p/c groups and level 2 within each, so each level seeks
// p/c−1 or c−1 splitters where the flat sort seeks p−1. The flat sort
// runs under an explicit contiguous owner, which routes as the default
// does but keeps it out of two levels. On sim it fails unless two levels
// send fewer splitter bytes and messages at every (p, c).
func runNodeSort(scale float64) error {
	perRank := max(int(2000*scale), 2000)
	t := tablefmt.New("p", "c", "sort", "rounds", "total sample", "splitter bytes", "messages", "imbalance")
	for _, pc := range []struct{ p, c int }{{16, 4}, {64, 8}, {256, 16}} {
		shards := dist.Spec{Kind: dist.PowerSkew}.Shards(perRank, pc.p, 42)
		opt := coded[int64](keycoder.Int64{}, pc.p)
		opt.Epsilon, opt.Seed = 0.05, 7
		if g, c, ok := core.Levels(pc.p, int64(perRank*pc.p), opt); !ok || g != pc.p/pc.c || c != pc.c {
			return fmt.Errorf("p=%d: core.Levels gives %d groups of %d, want %d of %d", pc.p, g, c, pc.p/pc.c, pc.c)
		}
		flat := opt
		flat.Owner = exchange.ContiguousOwner(pc.p, pc.p)
		var bytes, msgs [2]int64
		for i, alg := range []struct {
			name string
			opt  core.Options[int64]
		}{{"HSS flat", flat}, {"HSS two-level", opt}} {
			_, st, total, err := onWorld(cloneShards(shards), func(c *comm.Comm, local []int64) ([]int64, core.Stats, error) {
				return core.Sort(c, local, alg.opt)
			})
			if err != nil {
				return fmt.Errorf("p=%d c=%d %s: %w", pc.p, pc.c, alg.name, err)
			}
			bytes[i], msgs[i] = st.SplitterBytes, total.MsgsSent
			t.AddRow(
				fmt.Sprintf("%d", pc.p),
				fmt.Sprintf("%d", pc.c),
				alg.name,
				fmt.Sprintf("%d", st.Rounds),
				fmt.Sprintf("%d", st.TotalSample),
				tablefmt.Bytes(float64(st.SplitterBytes)),
				fmt.Sprintf("%d", total.MsgsSent),
				fmt.Sprintf("%.4f", st.Imbalance),
			)
		}
		if transport == hssort.TransportSim && (bytes[1] >= bytes[0] || msgs[1] >= msgs[0]) {
			return fmt.Errorf("p=%d c=%d: two levels sent %d splitter bytes in %d messages, flat HSS %d in %d",
				pc.p, pc.c, bytes[1], msgs[1], bytes[0], msgs[0])
		}
	}
	fmt.Printf("\n§6.1 node-level partitioning, %s powerskew keys per rank, groups of c ranks, eps = 0.05:\n\n", tablefmt.Count(float64(perRank)))
	fmt.Print(t.String())
	fmt.Println("\nPaper (§6.1): partitioning across nodes shrinks the splitter problem")
	fmt.Println("from p−1 to n−1 splitters and the all-to-all from p(p−1) to n(n−1)")
	fmt.Println("messages.")
	return nil
}
