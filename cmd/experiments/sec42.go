package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"hssort"
	"hssort/internal/bitonic"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
	"hssort/internal/histsort"
	"hssort/internal/keycoder"
	"hssort/internal/overpartition"
	"hssort/internal/par"
	"hssort/internal/radix"
	"hssort/internal/samplesort"
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
// paper discusses there, on one uniform workload at equal ε, then the
// load-balance check under skew (sec42LoadBalance). HSS runs on the
// engine (hssort.Sort). At p = 16 it, sample sort and histogram sort run
// in two levels of 4×4 (core.Levels), labelled so; radix,
// over-partitioning and bitonic exchange flat. The baselines are not
// engine algorithms: they run here straight on a world of the -transport
// backend, the only place outside their package tests that does — sample
// sort, histogram sort, radix and over-partitioning as splitter
// strategies of the one skeleton (core.SortWith), bitonic, which
// determines no splitters, as its own pipeline. Every output is checked
// to be a sorted permutation of the input.
func runSec42(scale float64) error {
	const p = 16 // bitonic needs a power of two and equal shards
	perRank := max(int(100000*scale), 5000)
	shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, 42)
	var want []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)

	baseline := func(sort func(*comm.Comm, []int64) ([]int64, core.Stats, error)) func([][]int64) (sec42Row, error) {
		return func(in [][]int64) (sec42Row, error) {
			outs, st, total, err := onWorld(in, sort)
			return sec42Row{outs, st.Rounds, total.MsgsSent, total.BytesSent, st.Imbalance}, err
		}
	}
	opt := coded[int64](keycoder.Int64{}, p)
	opt.Epsilon, opt.Seed = 0.05, 7
	algs := []struct {
		name string
		// rankOrdered: rank order follows key order (over-partitioning
		// places buckets largest-first, so only each rank is sorted).
		rankOrdered bool
		run         func([][]int64) (sec42Row, error)
	}{
		{"hss (two-level)", true, func(in [][]int64) (sec42Row, error) {
			outs, st, err := hssort.Sort(hssort.Config{Procs: p, Epsilon: 0.05, Seed: 7, Transport: transport}, in)
			return sec42Row{outs, st.Rounds, st.TotalMsgs, st.TotalBytes, st.Imbalance}, err
		}},
		{"samplesort-regular (two-level)", true, baseline(func(c *comm.Comm, local []int64) ([]int64, core.Stats, error) {
			return samplesort.Sort(c, local, opt, samplesort.Options{Method: samplesort.Regular})
		})},
		{"histogramsort (two-level)", true, baseline(func(c *comm.Comm, local []int64) ([]int64, core.Stats, error) {
			return histsort.Sort(c, local, opt, histsort.Options[int64]{Coder: keycoder.Int64{}})
		})},
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
		t0 := time.Now()
		row, err := a.run(cloneShards(shards))
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
	fmt.Printf("p = %d, %s uniform int64 keys per rank, eps = 0.05 (radix, bitonic and overpartition have no eps):\n\n", p, tablefmt.Count(float64(perRank)))
	fmt.Print(t.String())
	fmt.Println("\nPaper (§4.2): radix balances only as well as the key distribution's top")
	fmt.Println("bits; bitonic moves every key log²p/2 times; over-partitioning trades a")
	fmt.Println("looser balance for one round. HSS reaches 1+eps with a small sample.")
	fmt.Println()
	return sec42LoadBalance()
}

// sec42LoadBalance checks the paper's core claim — HSS reaches a
// requested (1+ε) balance with a sample orders of magnitude smaller than
// sample sort needs for the same guarantee (Table 5.1, Fig 4.1) — on a
// fixed heavily skewed workload, whatever the -scale: 32 ranks of 50 000
// keys, 95% of them in the lowest 1% of the key range. Regular sample
// sort capped at about what HSS samples in total misses the target; with
// its provable s = B/ε it meets it at a much larger sample. All three
// sort in two levels of 4×8 ranks (core.Levels), each level sampling
// anew. It returns an error unless HSS meets 1+ε and the capped sample
// sort misses it.
func sec42LoadBalance() error {
	const p, perRank, eps, seed = 32, 50_000, 0.05, 9
	shards := make([][]int64, p)
	for r := range shards {
		rng := rand.New(rand.NewPCG(uint64(r), 1234))
		shards[r] = make([]int64, perRank)
		for i := range shards[r] {
			if rng.Float64() < 0.95 {
				shards[r][i] = rng.Int64N(1 << 44) // hot 1%
			} else {
				shards[r][i] = rng.Int64N(1 << 51)
			}
		}
	}
	opt := coded[int64](keycoder.Int64{}, p)
	opt.Epsilon, opt.Seed = eps, seed
	sampleSort := func(s int) (core.Stats, error) {
		_, st, _, err := onWorld(cloneShards(shards), func(c *comm.Comm, local []int64) ([]int64, core.Stats, error) {
			return samplesort.Sort(c, local, opt, samplesort.Options{Method: samplesort.Regular, Oversample: s})
		})
		return st, err
	}

	_, hss, err := hssort.Sort(hssort.Config{Procs: p, Epsilon: eps, Seed: seed, Transport: transport}, cloneShards(shards))
	if err != nil {
		return fmt.Errorf("load balance, hss: %w", err)
	}
	// About HSS's total sample per rank: ~5 rounds of 5 keys per bucket.
	const budget = 5 * 5
	capped, err := sampleSort(budget)
	if err != nil {
		return fmt.Errorf("load balance, capped sample sort: %w", err)
	}
	provable, err := sampleSort(0)
	if err != nil {
		return fmt.Errorf("load balance, sample sort: %w", err)
	}

	t := tablefmt.New("algorithm", "sample", "imbalance", "target")
	row := func(name string, sample int64, imbalance float64) {
		status := "meets"
		if imbalance > 1+eps+1e-9 {
			status = fmt.Sprintf("misses by %.1f%%", 100*(imbalance-1-eps))
		}
		t.AddRow(name, fmt.Sprintf("%d", sample), fmt.Sprintf("%.4f", imbalance), status)
	}
	row("hss", hss.TotalSample, hss.Imbalance)
	row(fmt.Sprintf("samplesort-regular (capped s=%d)", budget), capped.TotalSample, capped.Imbalance)
	row("samplesort-regular (provable s=B/eps)", provable.TotalSample, provable.Imbalance)
	fmt.Printf("load balance under skew: p = %d, %s keys per rank (95%% in 1%% of the key range), target imbalance <= %.2f:\n\n",
		p, tablefmt.Count(perRank), 1+eps)
	fmt.Print(t.String())
	fmt.Println("\nAt matched sampling budgets HSS holds the guarantee because each")
	fmt.Println("histogram round tells it exactly where the remaining uncertainty is;")
	fmt.Println("sample sort needs its full Θ(p²/ε) sample to promise the same bound.")
	if hss.Imbalance > 1+eps+1e-9 || capped.Imbalance <= 1+eps+1e-9 {
		return fmt.Errorf("load balance: HSS must meet 1+eps (%.4f) and the capped sample sort must miss it (%.4f)",
			hss.Imbalance, capped.Imbalance)
	}
	return nil
}

// coded is the skeleton's options for the baselines' strategies on a
// world of p ranks: the keys' order, their coder's codes driving the
// local sort, partition cuts and merges, as the engine's code plane
// does, and the engine's default worker pool.
func coded[K cmp.Ordered](coder keycoder.Coder[K], p int) core.Options[K] {
	return core.Options[K]{Cmp: cmp.Compare[K], Code: coder.Encode, Workers: par.Default(p)}
}

// onWorld runs sort on every rank of a world of the -transport backend
// over in[rank], and returns the outputs, rank 0's stats and the world's
// message and byte totals (zero on inproc).
func onWorld[K any](in [][]K, sort func(*comm.Comm, []K) ([]K, core.Stats, error)) ([][]K, core.Stats, comm.Counters, error) {
	p := len(in)
	opts := []comm.Option{comm.WithTimeout(10 * time.Minute)}
	if transport == hssort.TransportInproc {
		opts = append(opts, comm.WithTransport(comm.NewInprocTransport(p)))
	}
	w := comm.NewWorld(p, opts...)
	outs := make([][]K, p)
	var stats core.Stats
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := sort(c, in[c.Rank()])
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		if c.Rank() == 0 {
			stats = st
		}
		return nil
	})
	return outs, stats, w.TotalCounters(), err
}
