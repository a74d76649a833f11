package main

import (
	"cmp"
	"fmt"

	"hssort"
	"hssort/internal/bspmodel"
	"hssort/internal/core"
	"hssort/internal/tablefmt"
)

// runFig41 regenerates Fig 4.1: overall sample size versus processor
// count at 5% load imbalance, for regular sampling, random sampling, and
// HSS with one round, two rounds, and constant oversampling. The analytic
// curves follow the paper's formulas; a measured column from the protocol
// simulator validates the HSS curves.
func runFig41(scale float64) error {
	const eps = 0.05
	const nPerProc = 1e6
	ps := []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}
	series := bspmodel.Fig41Series(ps, nPerProc, eps)
	order := []string{
		"regular sampling", "random sampling",
		"HSS - 1 round", "HSS - 2 rounds", "HSS - constant oversampling",
	}
	t := tablefmt.New(append([]string{"p"}, order...)...)
	for i, p := range ps {
		row := []string{tablefmt.Count(float64(p))}
		for _, name := range order {
			row = append(row, tablefmt.Count(series[name][i].Sample))
		}
		t.AddRow(row...)
	}
	fmt.Println("Analytic sample size (keys), eps = 5% (paper Fig 4.1):")
	fmt.Println()
	fmt.Print(t.String())

	// Measured validation: run the real protocol at a subset of scales.
	fmt.Println("\nMeasured (protocol simulator; keys actually gathered):")
	fmt.Println()
	mt := tablefmt.New("p", "HSS-1 round", "HSS-2 rounds", "HSS constant oversampling (rounds)")
	measured := []int{256, 1024, 4096, 16384}
	for _, p := range measured {
		n := int64(float64(p) * 512 * scale)
		if n < int64(p)*64 {
			n = int64(p) * 64
		}
		r1, err := simulateTheoretical(n, p, eps, 1)
		if err != nil {
			return err
		}
		r2, err := simulateTheoretical(n, p, eps, 2)
		if err != nil {
			return err
		}
		rc, err := hssort.SimulateSplitters(n, p, eps, 1)
		if err != nil {
			return err
		}
		mt.AddRow(
			tablefmt.Count(float64(p)),
			tablefmt.Count(float64(r1.TotalSample)),
			tablefmt.Count(float64(r2.TotalSample)),
			fmt.Sprintf("%s (%d)", tablefmt.Count(float64(rc.TotalSample)), rc.Rounds),
		)
	}
	fmt.Print(mt.String())
	fmt.Println("\nPaper: the five curves separate by orders of magnitude at large p, in")
	fmt.Println("the order regular > random > HSS-1 > HSS-2 > constant oversampling.")
	return nil
}

// simulateTheoretical runs the splitter protocol centrally under §3.3's
// k-round geometric sample-size schedule.
func simulateTheoretical(n int64, buckets int, eps float64, rounds int) (core.SimResult, error) {
	return core.SimulateSplitters(n, core.Options[int64]{
		Cmp:      cmp.Compare[int64],
		Buckets:  buckets,
		Epsilon:  eps,
		Schedule: core.Theoretical,
		Rounds:   rounds,
		Seed:     1,
	})
}
