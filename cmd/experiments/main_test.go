package main

import "testing"

// TestExperimentsRunAtTinyScale smoke-tests every experiment at a scale
// small enough for CI (sec4.2 included, which is what keeps the three
// §4.2 baseline packages exercised end to end).
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
