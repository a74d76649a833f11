package hssort

import (
	"fmt"
	"strconv"
	"strings"

	"hssort/internal/comm"
	"hssort/internal/core"
)

// ChaosConfig (Config.Chaos) wraps the sort's transport in a
// deterministic fault-injection layer: seeded per-message latency
// jitter and a one-shot rank crash at a named protocol phase. Link
// delays model a slow network on a FIFO link, so they add latency
// without changing any output — a chaos run is rank-identical to a
// clean one. A crash is real: the victim rank's endpoint dies (over TCP
// the peers see the socket sever) and surviving ranks fail with a
// *PeerCrashError naming the lost rank. The same Seed replays the same
// fault schedule.
type ChaosConfig struct {
	// Seed drives every fault decision; same seed, same schedule.
	Seed uint64
	// Delay is the per-message probability, in [0, 1], of a latency
	// jitter in (0, 2ms].
	Delay float64
	// CrashRank is the rank killed when CrashPhase triggers.
	CrashRank int
	// CrashPhase triggers the crash on CrashRank's first send of a named
	// phase of the sort skeleton: "start" (any
	// message), "splitter" (key count, the histogramming rounds, a
	// seed's round 0) or "exchange" (bucket data movement). Empty
	// disables crashing.
	CrashPhase string
	// OnCrash, when set, replaces the default crash action (killing the
	// victim's transport endpoint). The multi-process harness uses it to
	// SIGKILL the victim process itself.
	OnCrash func(rank int)
}

// chaosPhases lists the CrashPhase values, in flag-help order.
var chaosPhases = []string{"start", "splitter", "exchange"}

// faultSpec validates the config and lowers it to the comm-layer fault
// schedule, mapping CrashPhase onto the sort's tag ranges.
func (cc *ChaosConfig) faultSpec(procs int) (comm.FaultSpec, error) {
	if !(cc.Delay >= 0 && cc.Delay <= 1) {
		return comm.FaultSpec{}, fmt.Errorf("hssort: chaos delay probability %g outside [0, 1]", cc.Delay)
	}
	spec := comm.FaultSpec{
		Seed:      cc.Seed,
		Delay:     cc.Delay,
		CrashRank: cc.CrashRank,
		OnCrash:   cc.OnCrash,
	}
	if cc.CrashPhase != "" {
		lo, hi, ok := core.PhaseTagRange(cc.CrashPhase)
		if !ok {
			return comm.FaultSpec{}, fmt.Errorf("hssort: unknown chaos crash phase %q (valid values: %s)", cc.CrashPhase, strings.Join(chaosPhases, ", "))
		}
		if cc.CrashRank < 0 || cc.CrashRank >= procs {
			return comm.FaultSpec{}, fmt.Errorf("hssort: chaos crash rank %d out of range [0, %d)", cc.CrashRank, procs)
		}
		spec.CrashWhen = func(src, dst int, tag comm.Tag) bool {
			return tag >= lo && tag < hi
		}
	}
	return spec, nil
}

// ParseChaosSpec parses the command-line chaos syntax "seed:spec" where
// spec is a comma-separated list of faults:
//
//	delay=P                     latency-jitter probability in [0, 1]
//	crash=RANK@PHASE            kill RANK at its first PHASE send
//
// PHASE is start, splitter or exchange. Example:
// "1:delay=0.05,crash=2@exchange". An empty string returns nil (chaos
// off).
func ParseChaosSpec(s string) (*ChaosConfig, error) {
	if s == "" {
		return nil, nil
	}
	seedStr, spec, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("hssort: chaos spec %q: want \"seed:fault,fault,...\"", s)
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("hssort: chaos seed %q: %v", seedStr, err)
	}
	cc := &ChaosConfig{Seed: seed}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("hssort: chaos fault %q: want key=value", field)
		}
		switch key {
		case "delay":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("hssort: chaos delay=%q: want a probability in [0, 1]", val)
			}
			cc.Delay = p
		case "crash":
			rankStr, phase, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("hssort: chaos crash=%q: want RANK@PHASE", val)
			}
			rank, err := strconv.Atoi(rankStr)
			if err != nil || rank < 0 {
				return nil, fmt.Errorf("hssort: chaos crash rank %q: want a non-negative rank", rankStr)
			}
			if _, _, ok := core.PhaseTagRange(phase); !ok {
				return nil, fmt.Errorf("hssort: chaos crash phase %q (valid values: %s)", phase, strings.Join(chaosPhases, ", "))
			}
			cc.CrashRank, cc.CrashPhase = rank, phase
		default:
			return nil, fmt.Errorf("hssort: unknown chaos fault %q (valid keys: delay, crash)", key)
		}
	}
	return cc, nil
}
