// Command benchmark is the repository's performance ledger: five fixed
// workloads, the same end-to-end metrics on each, per-layer probes and an
// outside-in span trace. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run, result as the last line
//	benchmark [-trace] [-runs N] [-out DIR]                every workload, each in a child process
//	benchmark -compare A.json B.json                       two ledgers, one verdict per metric
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed    = fs.Uint64("seed", 1, "inputs are generated from this seed; use 2 for the run a claim rests on")
		seconds = fs.Float64("seconds", 12, "how long each run measures")
		trace   = fs.Bool("trace", false, "traced run: per-layer metrics and a span file in place of the end-to-end metrics")
		runs    = fs.Int("runs", 1, "with no -workload: runs per workload, at seeds seed, seed+1, ...")
		out     = fs.String("out", "", "keep the ledger (results.json) and span files here (default: .bench_build/last under the checkout)")
		root    = fs.String("root", "", "the checkout (default: found from the working directory)")
		compare = fs.Bool("compare", false, "compare two ledgers: -compare A.json B.json")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fatal(errors.New("-compare takes two ledger files"))
		}
		return compareLedgers(*root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		return fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	dir, err := findRoot(*root)
	if err != nil {
		return fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(dir, buildDir, "last")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fatal(err)
	}
	if *name == "" {
		return runAll(ctx, allOpts{seed: *seed, seconds: *seconds, trace: *trace, runs: *runs, out: *out, root: dir}, stdout, stderr)
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fatal(fmt.Errorf("unknown workload %q (valid values: %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	tmp, err := os.MkdirTemp(filepath.Join(dir, buildDir), "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(tmp)
	o := runOpts{seed: *seed, seconds: *seconds, scale: 1, setupCycles: 9, root: dir, tmp: tmp}
	if *trace {
		// The traced run spends half its time on the probes, and reports
		// the engine's set-up calls one by one instead of setup_s.
		o.trace, o.seconds, o.setupCycles = true, *seconds/2, 0
	}
	res, err := w.run(ctx, o)
	if err != nil {
		return fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	if res.tracer != nil {
		if err := res.tracer.write(filepath.Join(*out, w.name+".trace.json")); err != nil {
			return fatal(err)
		}
	}
	return report(w.name, *seed, *trace, res, stdout, stderr)
}

// buildDir holds everything the benchmark writes, under the checkout.
const buildDir = ".bench_build"

// joinTraceValue lets -trace take its value as the next argument, the
// contract's "--trace 0|1", although Go's boolean flags only accept
// -trace=V; a bare -trace still means on.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// findRoot locates the checkout: the directory whose benchmark/ holds this
// module. It is where the sources of cmd/hssortd and cmd/hssort are built
// from and where .bench_build goes.
func findRoot(flagRoot string) (string, error) {
	candidates := []string{flagRoot}
	if flagRoot == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if data, err := os.ReadFile(filepath.Join(c, "benchmark", "go.mod")); err == nil && strings.HasPrefix(string(data), "module hssort/benchmark") {
			if _, err := os.Stat(filepath.Join(c, "go.mod")); err != nil {
				return "", fmt.Errorf("%s holds the benchmark but not the hssort module it measures", c)
			}
			abs, err := filepath.Abs(c)
			if err != nil {
				return "", err
			}
			if err := os.MkdirAll(filepath.Join(abs, buildDir), 0o755); err != nil {
				return "", err
			}
			return abs, nil
		}
	}
	return "", errors.New("run from the checkout or from its benchmark/ directory, or pass -root")
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric by name with its unit and sample count, then
// the result line. A run with a failed op exits non-zero.
func report(name string, seed uint64, trace bool, res *outcome, stdout, stderr io.Writer) int {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	shaped, err := shape(defs, res.vals)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed=%d trace=%v: %d timed ops, %d failed; timings are medians\n", name, seed, trace, res.attempted, res.failed)
	for _, e := range res.errs {
		fmt.Fprintf(stdout, "  failed: %s\n", e)
	}
	for _, d := range defs {
		n := res.attempted
		if d.name == "setup_s" {
			n = res.setups
		}
		fmt.Fprintf(stdout, "  %-32s %16.6g %-8s (n=%d)\n", d.name, shaped[d.name].Value, d.unit, n)
	}
	line, err := json.Marshal(resultLine{Correct: res.failed == 0, Attempted: max(1, res.attempted), Failed: res.failed, Metrics: shaped})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

// buildTool builds one of the repository's commands into .bench_build/bin
// (an up-to-date binary is left alone by the go tool) and returns its path.
func buildTool(ctx context.Context, root, cmd string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", cmd)
	c := exec.CommandContext(ctx, "go", "build", "-o", bin, "hssort/cmd/"+cmd)
	c.Dir = filepath.Join(root, "benchmark")
	if out, err := c.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build hssort/cmd/%s: %w\n%s", cmd, err, out)
	}
	return bin, nil
}
