package main

import (
	"fmt"

	"hssort"
	"hssort/internal/tablefmt"
)

// runFig31 illustrates Fig 3.1: the splitter intervals (the fraction of
// the input still in play, G_j/N) shrink geometrically as HSS rounds
// progress.
func runFig31(scale float64) error {
	n := int64(1 << 20 * scale)
	if n < 1<<14 {
		n = 1 << 14
	}
	const buckets = 16
	res, err := hssort.SimulateSplitters(n, buckets, 0.02, 1)
	if err != nil {
		return err
	}
	t := tablefmt.New("round", "sample size", "coverage G_j", "G_j / N")
	for j := 0; j < res.Rounds; j++ {
		t.AddRow(
			fmt.Sprintf("%d", j+1),
			fmt.Sprintf("%d", res.SamplePerRound[j]),
			fmt.Sprintf("%d", res.CoveragePerRound[j]),
			fmt.Sprintf("%.5f", float64(res.CoveragePerRound[j])/float64(n)),
		)
	}
	fmt.Printf("HSS on N=%d keys, %d buckets, eps=0.02 (finalized=%v, imbalance=%.4f)\n\n",
		n, buckets, res.Finalized, res.Imbalance)
	fmt.Print(t.String())
	fmt.Println("\nPaper (Fig 3.1): splitter intervals shrink every round; samples are")
	fmt.Println("drawn only from the surviving intervals.")
	return nil
}
