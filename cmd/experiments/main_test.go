package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestExperimentsRunAtTinyScale smoke-tests every experiment at a scale
// small enough for CI (sec4.2 included, which is what keeps the five
// §4.2 baseline packages — samplesort, histsort, radix, bitonic and
// overpartition — exercised end to end, and fails unless HSS meets 1+ε
// where capped sample sort misses it).
func TestExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests")
	}
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			if err := e.run(0.05); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		})
	}
}

// TestExperimentNamesUnique guards the -exp dispatch table.
func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
		if e.desc == "" || e.run == nil {
			t.Errorf("experiment %q incomplete", e.name)
		}
	}
}

// TestSimulatorExperimentsGolden pins the full output of the experiments
// that run the central splitter simulator. They are deterministic, so
// any change to their output is a change to the protocol or its
// schedules. Regenerate after an intended change with
//
//	go run ./cmd/experiments -exp fig3.1,fig4.1,table6.1 > cmd/experiments/testdata/simulator.golden
func TestSimulatorExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 simulator runs")
	}
	want, err := os.ReadFile("testdata/simulator.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error {
		_, err := runNamed("fig3.1,fig4.1,table6.1", 1)
		return err
	})
	if string(got) == string(want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("output differs from testdata/simulator.golden at line %d:\n got %q\nwant %q", i+1, at(gl, i), at(wl, i))
		}
	}
}

// at is lines[i], or "" past the end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	b := <-out
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return b
}
