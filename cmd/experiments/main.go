// Command experiments regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports; the README section "Reproducing the paper's evaluation" is the
// guide to them.
//
// Usage:
//
//	experiments -exp all                 # run everything
//	experiments -exp table6.1           # one experiment
//	experiments -exp fig6.1 -scale 2    # scale simulated sizes up/down
//
// Experiments: fig3.1, fig4.1, sec4.2 (HSS vs the §4.2 comparison
// sorts), table5.1, fig6.1 (with §6.1's two levels vs flat), table6.1,
// fig6.2, approx (§3.4 validation).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hssort"
)

// experiment is one regenerable table or figure.
type experiment struct {
	name string
	desc string
	run  func(scale float64) error
}

var experiments = []experiment{
	{"fig3.1", "splitter intervals shrink across rounds (illustration)", runFig31},
	{"fig4.1", "sample size vs p: sample sort vs HSS (analytic + measured)", runFig41},
	{"sec4.2", "HSS vs sample sort, histogram sort, radix, bitonic and over-partitioning on one workload; load balance under skew", runSec42},
	{"table5.1", "complexity table with concrete sample sizes (p=1e5, eps=5%)", runTable51},
	{"fig6.1", "weak scaling: execution-time breakdown per phase; §6.1 two-level vs flat HSS", runFig61},
	{"table6.1", "histogramming rounds observed at the paper's processor counts", runTable61},
	{"fig6.2", "ChaNGa sorting: HSS vs classic histogram sort on Dwarf/Lambb", runFig62},
	{"approx", "§3.4 approximate rank oracle accuracy validation", runApprox},
}

// transport is the comm backend the sorting experiments run over, set by
// the -transport flag. The default (sim) reproduces the paper's
// byte-accounted numbers; inproc reports wall-clock speed only.
var transport hssort.Transport

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all', or 'list')")
	scale := flag.Float64("scale", 1, "scale factor for simulated problem sizes")
	trName := flag.String("transport", "sim", "comm backend for the sorting experiments: sim or inproc")
	flag.Parse()

	var err error
	if transport, err = hssort.ParseTransport(*trName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *exp == "list" {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	ran, err := runNamed(*exp, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if ran == 0 {
		known := make([]string, 0, len(experiments))
		for _, e := range experiments {
			known = append(known, e.name)
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", *exp, strings.Join(known, ", "))
		os.Exit(2)
	}
}

// runNamed runs the experiments in a comma-separated list of names
// ("all" for every one), each under its banner, and returns how many
// ran.
func runNamed(list string, scale float64) (int, error) {
	names := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		names[strings.TrimSpace(n)] = true
	}
	ran := 0
	for _, e := range experiments {
		if !names["all"] && !names[e.name] {
			continue
		}
		fmt.Printf("=== %s — %s ===\n\n", e.name, e.desc)
		if err := e.run(scale); err != nil {
			return ran, fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println()
		ran++
	}
	return ran, nil
}
