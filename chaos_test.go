package hssort

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseChaosSpec: the -chaos syntax accepts seed:delay=P and
// seed:crash=RANK@PHASE, and rejects everything else with an error that
// names what is valid.
func TestParseChaosSpec(t *testing.T) {
	accepted := []struct {
		spec string
		want *ChaosConfig
	}{
		{"", nil},
		{"9:crash=2@exchange", &ChaosConfig{Seed: 9, CrashRank: 2, CrashPhase: "exchange"}},
		{"1:delay=0.05", &ChaosConfig{Seed: 1, Delay: 0.05}},
		{"1:delay=0.05,crash=2@exchange", &ChaosConfig{Seed: 1, Delay: 0.05, CrashRank: 2, CrashPhase: "exchange"}},
	}
	for _, tc := range accepted {
		got, err := ParseChaosSpec(tc.spec)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q parsed to %+v, want %+v", tc.spec, got, tc.want)
		}
	}

	rejected := []struct {
		spec, mention string // mention: a substring the error must carry
	}{
		{"delay=0.05", "seed:"},
		{"1:delay=1.5", "[0, 1]"},
		{"1:delay=-0.1", "[0, 1]"},
		{"1:crash=2@merge", "start, splitter, exchange"},
		{"1:crash=-1@exchange", "non-negative rank"},
		{"1:bogus=1", "valid keys: delay, crash"},
		{"1:drop=0.01", "valid keys: delay, crash"},
		{"1:dup=0.01", "valid keys: delay, crash"},
		{"1:maxdelay=1ms", "valid keys: delay, crash"},
		{"1:crash=2@sends:3", "start, splitter, exchange"},
	}
	for _, tc := range rejected {
		cc, err := ParseChaosSpec(tc.spec)
		if err == nil {
			t.Errorf("%q accepted as %+v", tc.spec, cc)
			continue
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%q: error %q does not mention %q", tc.spec, err, tc.mention)
		}
	}
}
