package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file's lists.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func contractOf(defs []metricDef) []contractMetric {
	out := make([]contractMetric, len(defs))
	for i, d := range defs {
		out[i] = contractMetric{Name: d.name, Unit: d.unit, Better: "lower"}
		if d.higher {
			out[i].Better = "higher"
		}
	}
	return out
}

// TestSmoke runs every workload, untraced and traced, at 1/64 of its size
// with two timed ops, and holds what the runs emit against BENCHMARK.json:
// exactly its workloads and metric names, nothing missing, nothing extra.
func TestSmoke(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames())
	}
	if !slices.Equal(bj.EndToEnd, contractOf(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end differs from the benchmark's:\n%+v\n%+v", bj.EndToEnd, contractOf(endToEnd))
	}
	if !slices.Equal(bj.PerLayer, contractOf(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's:\n%+v\n%+v", bj.PerLayer, contractOf(perLayer))
	}
	grammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !grammar.MatchString(d.name) {
			t.Errorf("metric name %q is outside the contract's grammar", d.name)
		}
	}

	start := time.Now()
	emitted := map[string]bool{} // per-layer metrics some workload measured
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			tmp := t.TempDir()
			o := runOpts{seed: 1, scale: 64, ops: 2, setupCycles: 1, trace: traced, root: root, tmp: tmp}
			res, err := w.run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted < o.ops {
				t.Errorf("%s trace=%v: %d attempted, %d failed: %v", w.name, traced, res.attempted, res.failed, res.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if err := res.tracer.write(filepath.Join(tmp, "trace.json")); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
				os.Remove(filepath.Join(tmp, "trace.json"))
			}
			if _, err := shape(defs, res.vals); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, traced, err)
			}
			for name, v := range res.vals {
				emitted[name] = true
				// The daemon's CPU clock ticks in 10 ms, which a handful of
				// 1/64-size jobs does not reach.
				tiny := w.name == "service_mix" && name == "cpu_ms_per_mkey"
				if !traced && v <= 0 && !tiny {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v)
				}
			}
			if !traced && len(res.vals) != len(endToEnd) {
				t.Errorf("%s emitted %d end-to-end metrics, want %d", w.name, len(res.vals), len(endToEnd))
			}
			assertNothingLeft(t, w.name, tmp)
		}
	}
	for _, d := range perLayer {
		if !emitted[d.name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.name)
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke runs took %v, want under 15s", d)
	}
}

// TestInterruptedRunCleansUp cancels the two workloads that own outside
// resources (a daemon process, spill files) in mid-run.
func TestInterruptedRunCleansUp(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spill_2x", "service_mix"} {
		w, _ := findWorkload(name)
		tmp := t.TempDir()
		ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
		res, err := w.run(ctx, runOpts{seed: 1, scale: 8, seconds: 20, setupCycles: 1, root: root, tmp: tmp})
		cancel()
		if err == nil && res.failed == 0 {
			t.Errorf("%s: a run cancelled in mid-flight reported no failure", name)
		}
		assertNothingLeft(t, name, tmp)
	}
}

// assertNothingLeft fails if the run left a spill file in its directory or
// a daemon process (and so its listener) behind.
func assertNothingLeft(t *testing.T, name, tmp string) {
	t.Helper()
	filepath.WalkDir(tmp, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasSuffix(path, ".log") {
			t.Errorf("%s left %s behind", name, path)
		}
		return nil
	})
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if cmdline, err := os.ReadFile(p); err == nil && strings.Contains(string(cmdline), filepath.Join(buildDir, "bin", "hssortd")) {
			t.Errorf("%s left a daemon running: %s", name, strings.ReplaceAll(string(cmdline), "\x00", " "))
		}
	}
}
