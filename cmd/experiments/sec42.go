package main

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hssort"
	"hssort/internal/bitonic"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
	"hssort/internal/keycoder"
	"hssort/internal/overpartition"
	"hssort/internal/radix"
	"hssort/internal/tablefmt"
)

// sec42Row is one algorithm's run in the §4.2 table.
type sec42Row struct {
	outs        [][]int64
	rounds      int
	msgs, bytes int64
	imbalance   float64
}

// runSec42 regenerates the comparison of §4.2: HSS against the sorts the
// paper discusses there, on one uniform workload at equal ε. The
// splitter-based three run on the engine (hssort.Sort); radix, bitonic
// and over-partitioning determine no splitters, so they are not engine
// algorithms and run here straight on a simulated world, the only place
// outside their package tests that does. Every output is checked to be a
// sorted permutation of the input.
func runSec42(scale float64) error {
	const p = 16 // bitonic needs a power of two and equal shards
	perRank := max(int(100000*scale), 5000)
	shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, 42)
	var want []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)

	engine := func(alg hssort.Algorithm) func([][]int64) (sec42Row, error) {
		return func(in [][]int64) (sec42Row, error) {
			outs, st, err := hssort.Sort(hssort.Config{Procs: p, Algorithm: alg, Epsilon: 0.05, Seed: 7, Transport: transport}, in)
			return sec42Row{outs, st.Rounds, st.TotalMsgs, st.TotalBytes, st.Imbalance}, err
		}
	}
	baseline := func(sort func(*comm.Comm, []int64) ([]int64, core.Stats, error)) func([][]int64) (sec42Row, error) {
		return func(in [][]int64) (sec42Row, error) {
			row := sec42Row{outs: make([][]int64, p)}
			w := comm.NewWorld(p, comm.WithTimeout(10*time.Minute))
			err := w.Run(func(c *comm.Comm) error {
				out, st, err := sort(c, in[c.Rank()])
				if err != nil {
					return err
				}
				row.outs[c.Rank()] = out
				if c.Rank() == 0 {
					row.rounds, row.imbalance = st.Rounds, st.Imbalance
				}
				return nil
			})
			total := w.TotalCounters()
			row.msgs, row.bytes = total.MsgsSent, total.BytesSent
			return row, err
		}
	}
	algs := []struct {
		name string
		// rankOrdered: rank order follows key order (over-partitioning
		// places buckets largest-first, so only each rank is sorted).
		rankOrdered bool
		run         func([][]int64) (sec42Row, error)
	}{
		{"hss", true, engine(hssort.HSS)},
		{"samplesort-regular", true, engine(hssort.SampleSortRegular)},
		{"histogramsort", true, engine(hssort.HistogramSort)},
		{"radix", true, baseline(func(c *comm.Comm, local []int64) ([]int64, core.Stats, error) {
			return radix.Sort(c, local, radix.Options[int64]{Cmp: cmp.Compare[int64], Coder: keycoder.Int64{}})
		})},
		{"bitonic", true, baseline(func(c *comm.Comm, local []int64) ([]int64, core.Stats, error) {
			return bitonic.Sort(c, local, bitonic.Options[int64]{Cmp: cmp.Compare[int64]})
		})},
		{"overpartition", false, baseline(func(c *comm.Comm, local []int64) ([]int64, core.Stats, error) {
			return overpartition.Sort(c, local, overpartition.Options[int64]{Cmp: cmp.Compare[int64], Seed: 7})
		})},
	}

	t := tablefmt.New("algorithm", "time", "rounds", "msgs", "bytes", "imbalance")
	for _, a := range algs {
		in := make([][]int64, p)
		for r := range shards {
			in[r] = slices.Clone(shards[r])
		}
		t0 := time.Now()
		row, err := a.run(in)
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		var got []int64
		for r, o := range row.outs {
			if !slices.IsSorted(o) {
				return fmt.Errorf("%s: rank %d output is not sorted", a.name, r)
			}
			got = append(got, o...)
		}
		if !a.rankOrdered {
			slices.Sort(got)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s: output is not the sorted permutation of the input", a.name)
		}
		t.AddRow(a.name, wall.Round(time.Millisecond).String(), fmt.Sprintf("%d", row.rounds),
			tablefmt.Count(float64(row.msgs)), tablefmt.Bytes(float64(row.bytes)), fmt.Sprintf("%.4f", row.imbalance))
	}
	fmt.Printf("p = %d, %s uniform int64 keys per rank, eps = 0.05 (radix, bitonic and overpartition have no eps;\nthey always run on the byte-accounted sim world):\n\n", p, tablefmt.Count(float64(perRank)))
	fmt.Print(t.String())
	fmt.Println("\nPaper (§4.2): radix balances only as well as the key distribution's top")
	fmt.Println("bits; bitonic moves every key log²p/2 times; over-partitioning trades a")
	fmt.Println("looser balance for one round. HSS reaches 1+eps with a small sample.")
	return nil
}
