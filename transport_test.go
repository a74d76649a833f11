package hssort

import (
	"slices"
	"strings"
	"testing"

	"hssort/internal/dist"
)

// TestTransportNamesRoundTrip: String and ParseTransport agree, the
// parser is case-insensitive, and its error names the valid values.
func TestTransportNamesRoundTrip(t *testing.T) {
	for _, tr := range []Transport{TransportSim, TransportInproc, TransportTCP} {
		got, err := ParseTransport(tr.String())
		if err != nil || got != tr {
			t.Errorf("ParseTransport(%q) = %v, %v", tr.String(), got, err)
		}
		name := tr.String()
		for _, variant := range []string{strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			got, err := ParseTransport(variant)
			if err != nil || got != tr {
				t.Errorf("ParseTransport(%q) = %v, %v (want case-insensitive match)", variant, got, err)
			}
		}
	}
	_, err := ParseTransport("carrier-pigeon")
	if err == nil {
		t.Fatal("unknown transport name parsed")
	}
	for _, want := range TransportNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("parse error %q does not list valid value %q", err, want)
		}
	}
	if Transport(42).String() != "Transport(42)" {
		t.Error("unknown transport name")
	}
}

// TestTransportRegistryComplete: the registry — the single source of
// the valid-values lists in errors and flag help — covers every backend
// and stays self-consistent.
func TestTransportRegistryComplete(t *testing.T) {
	names := TransportNames()
	if want := []string{"sim", "inproc", "tcp"}; !slices.Equal(names, want) {
		t.Fatalf("TransportNames() = %v, want %v", names, want)
	}
	summaries := TransportSummaries()
	if len(summaries) != len(names) {
		t.Fatalf("%d summaries for %d names", len(summaries), len(names))
	}
	for i, s := range summaries {
		if !strings.HasPrefix(s, names[i]+": ") {
			t.Errorf("summary %q does not lead with its name %q", s, names[i])
		}
	}
	for _, name := range names {
		tr, err := ParseTransport(name)
		if err != nil || tr.String() != name {
			t.Errorf("registry round trip broken for %q: %v, %v", name, tr, err)
		}
	}
}

// TestUnknownTransportRejected: Sort fails cleanly on an invalid
// Config.Transport instead of panicking mid-run.
func TestUnknownTransportRejected(t *testing.T) {
	shards := dist.Spec{Kind: dist.Uniform}.Shards(100, 2, 1)
	if _, _, err := Sort(Config{Procs: 2, Transport: Transport(42)}, shards); err == nil {
		t.Fatal("Sort accepted an unknown transport")
	}
}
