package main

import (
	"fmt"

	"hssort"
	"hssort/internal/sampling"
	"hssort/internal/tablefmt"
)

// runTable61 regenerates Table 6.1: the number of histogramming rounds
// HSS needs with a 5p-key sample per round at eps = 0.02, for the paper's
// true processor counts p = 4K..32K, against the analytic bound
// ceil(ln(2 ln p/eps)/ln(f/2)). The protocol simulator executes the exact
// sampling/histogramming protocol, so these are measured rounds, not
// estimates.
func runTable61(scale float64) error {
	const eps = 0.02
	const f = 5.0
	perBucket := int64(1000 * scale)
	if perBucket < 200 {
		perBucket = 200
	}
	t := tablefmt.New("p (x1000)", "sample/round (xp)", "rounds observed", "bound", "imbalance", "finalized")
	for _, p := range []int{4096, 8192, 16384, 32768} {
		res, err := hssort.SimulateSplitters(int64(p)*perBucket, p, eps, 1)
		if err != nil {
			return err
		}
		bound, err := sampling.ExpectedRoundsFixed(p, eps, f)
		if err != nil {
			return err
		}
		// Mean per-round sample in units of p.
		var total int64
		for _, s := range res.SamplePerRound {
			total += s
		}
		perRound := float64(total) / float64(res.Rounds) / float64(p)
		t.AddRow(
			fmt.Sprintf("%d", p/1024),
			fmt.Sprintf("%.1f", perRound),
			fmt.Sprintf("%d", res.Rounds),
			fmt.Sprintf("%d", bound),
			fmt.Sprintf("%.4f", res.Imbalance),
			fmt.Sprintf("%v", res.Finalized),
		)
	}
	fmt.Printf("HSS rounds at eps = %.2f with %v-fold oversampling per round:\n\n", eps, f)
	fmt.Print(t.String())
	fmt.Println("\nPaper (Table 6.1): 4 rounds observed at p = 4K, 8K, 16K, 32K; bound 8.")
	return nil
}
