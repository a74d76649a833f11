package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// ledger is one set of runs with the host that made them. -compare reads
// two of them.
type ledger struct {
	Host    hostInfo    `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []ledgerRun `json:"runs"`
}

// hostInfo is the shape two ledgers must share to be compared.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SortRate   float64 `json:"slices_sort_mkeys_per_s"`
}

type ledgerRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

type allOpts struct {
	seed      uint64
	seconds   float64
	trace     bool
	runs      int
	out, root string
}

// runAll runs every workload in a child process of its own (a fresh heap
// each, so the order does not matter), runs times at consecutive seeds,
// untraced; with trace, a traced run follows each. It prints every
// end-to-end metric as the median over the runs and writes the ledger.
func runAll(ctx context.Context, o allOpts, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	led := ledger{
		Host:    hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: min(runtime.NumCPU(), 4), GoVersion: runtime.Version(), SortRate: hostSortRate(1)},
		Seconds: o.seconds,
	}
	modes := []bool{false}
	if o.trace {
		modes = append(modes, true)
	}
	code := 0
	for r := 0; r < o.runs; r++ {
		for _, w := range workloads {
			for _, traced := range modes {
				seed := o.seed + uint64(r)
				cmd := exec.CommandContext(ctx, self, "-root", o.root, "-out", o.out, "-workload", w.name,
					"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), fmt.Sprintf("-trace=%v", traced))
				cmd.Stderr = stderr
				out, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var line resultLine
				if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
					fmt.Fprintf(stderr, "benchmark: %s seed %d printed no result: %v\n%s", w.name, seed, err, out)
					return 1
				}
				if err != nil || !line.Correct {
					fmt.Fprintf(stderr, "benchmark: %s seed %d failed (%v):\n%s", w.name, seed, err, out)
					code = 1
				}
				led.Runs = append(led.Runs, ledgerRun{Workload: w.name, Seed: seed, Trace: traced, resultLine: line})
				fmt.Fprintf(stderr, "ran %s seed=%d trace=%v: %d ops, %d failed\n", w.name, seed, traced, line.Attempted, line.Failed)
			}
		}
	}
	printLedger(led, o.trace, stdout)
	data, err := json.MarshalIndent(led, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "results.json"), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "ledger: %s\n", filepath.Join(o.out, "results.json"))
	return code
}

// column collects one metric's values over a ledger's runs of one workload.
func (l ledger) column(workload, name string, traced bool) (xs []float64, ops int) {
	for _, r := range l.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced {
			xs = append(xs, m.Value)
			ops += r.Attempted
		}
	}
	return xs, ops
}

func printLedger(l ledger, traced bool, w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s slices.Sort %.1f Mkeys/s; %gs per run\n", l.Host.NProc, l.Host.GOMAXPROCS, l.Host.GoVersion, l.Host.SortRate, l.Seconds)
	table := func(defs []metricDef, traced bool) {
		for _, wl := range workloads {
			for _, d := range defs {
				xs, ops := l.column(wl.name, d.name, traced)
				if len(xs) == 0 {
					continue
				}
				fmt.Fprintf(w, "%-12s %-32s %14.6g %-8s median of %d runs (%d timed ops), spread %.1f%%\n", wl.name, d.name, median(xs), d.unit, len(xs), ops, 100*spread(xs))
			}
		}
	}
	table(endToEnd, false)
	if traced {
		table(perLayer, true)
	}
}

// contract is the part of BENCHMARK.json -compare reads: the bounds.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// compareLedgers prints one row per workload and end-to-end metric: both
// medians, B's change relative to A, the bound, and a verdict. It refuses
// ledgers from hosts of different shape, and exits 1 on any "worse".
func compareLedgers(root, pathA, pathB string, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	dir, err := findRoot(root)
	if err != nil {
		return fatal(err)
	}
	var c contract
	var a, b ledger
	for path, v := range map[string]any{filepath.Join(dir, "BENCHMARK.json"): &c, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	if err := sameShape(a.Host, b.Host); err != nil {
		return fatal(fmt.Errorf("refusing to compare: %w", err))
	}
	worse := false
	fmt.Fprintf(stdout, "%-12s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range c.EndToEnd {
			xa, _ := a.column(wl.name, m.Name, false)
			xb, _ := b.column(wl.name, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			verdict := judge(ma, mb, max(spread(xa), spread(xb)), m.Bound, m.Better == "higher")
			worse = worse || verdict == "worse"
			fmt.Fprintf(stdout, "%-12s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", wl.name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// sameShape is ROADMAP's "refuse to compare across shapes".
func sameShape(a, b hostInfo) error {
	switch {
	case a.NProc != b.NProc:
		return fmt.Errorf("host.nproc differs: %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("Go version differs: %s vs %s", a.GoVersion, b.GoVersion)
	case math.Abs(a.SortRate-b.SortRate) > 0.15*a.SortRate:
		return fmt.Errorf("host.slices_sort_mkeys_per_s differs by more than 15%%: %.1f vs %.1f", a.SortRate, b.SortRate)
	}
	return nil
}

// judge compares B's median to A's, the base. A change within the bound is
// "same"; beyond it "better" or "worse"; but when either side's own spread
// exceeds the bound the runs cannot resolve a change of that size.
func judge(a, b, spread, bound float64, higherIsBetter bool) string {
	if spread > bound {
		return "unresolved"
	}
	change := (b - a) / a
	if !higherIsBetter {
		change = -change
	}
	switch {
	case change < -bound:
		return "worse"
	case change > bound:
		return "better"
	}
	return "same"
}
