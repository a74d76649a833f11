package hssort

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
)

// ChaosConfig (Config.Chaos) wraps the sort's transport in a
// deterministic fault-injection layer: seeded per-message link faults
// (drops retransmitted after a delay, latency jitter, suppressed
// duplicates) and a one-shot rank crash at a named protocol phase. Link
// faults model a lossy network under its repair layer, so they add
// latency without changing any output — a chaos run is rank-identical
// to a clean one. A crash is real: the victim rank's endpoint dies
// (over TCP the peers see the socket sever) and surviving ranks fail
// with a *PeerCrashError naming the lost rank. The same Seed replays
// the same fault schedule.
type ChaosConfig struct {
	// Seed drives every fault decision; same seed, same schedule.
	Seed uint64
	// Drop, Delay, Dup are per-message probabilities (summing to at most
	// 1) of the three link faults.
	Drop, Delay, Dup float64
	// MaxDelay bounds the injected latency jitter. Default 2ms.
	MaxDelay time.Duration
	// CrashRank is the rank killed when CrashPhase or CrashAfterSends
	// triggers.
	CrashRank int
	// CrashPhase triggers the crash on CrashRank's first send of a named
	// phase of the sort skeleton, flat or two-level: "start" (any
	// message), "splitter" (key count, the histogramming rounds, a
	// seed's round 0) or "exchange" (bucket data movement). Empty
	// disables phase-triggered crashing.
	CrashPhase string
	// CrashAfterSends triggers the crash on CrashRank's nth send
	// (counting all destinations). Zero disables.
	CrashAfterSends int
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
	if cc.Drop < 0 || cc.Delay < 0 || cc.Dup < 0 || cc.Drop+cc.Delay+cc.Dup > 1 {
		return comm.FaultSpec{}, fmt.Errorf("hssort: chaos probabilities must be non-negative and sum to at most 1 (drop=%g delay=%g dup=%g)", cc.Drop, cc.Delay, cc.Dup)
	}
	spec := comm.FaultSpec{
		Seed:            cc.Seed,
		Drop:            cc.Drop,
		Delay:           cc.Delay,
		Dup:             cc.Dup,
		MaxDelay:        cc.MaxDelay,
		CrashRank:       cc.CrashRank,
		CrashAfterSends: cc.CrashAfterSends,
		OnCrash:         cc.OnCrash,
	}
	if cc.CrashPhase != "" {
		lo, hi, ok := core.PhaseTagRange(0, cc.CrashPhase)
		if !ok {
			return comm.FaultSpec{}, fmt.Errorf("hssort: unknown chaos crash phase %q (valid values: %s)", cc.CrashPhase, strings.Join(chaosPhases, ", "))
		}
		spec.CrashWhen = func(src, dst int, tag comm.Tag) bool {
			return tag >= lo && tag < hi
		}
	}
	if cc.CrashPhase != "" || cc.CrashAfterSends > 0 {
		if cc.CrashRank < 0 || cc.CrashRank >= procs {
			return comm.FaultSpec{}, fmt.Errorf("hssort: chaos crash rank %d out of range [0, %d)", cc.CrashRank, procs)
		}
	}
	return spec, nil
}

// ParseChaosSpec parses the command-line chaos syntax "seed:spec" where
// spec is a comma-separated list of faults:
//
//	drop=P  delay=P  dup=P      link-fault probabilities in [0, 1]
//	maxdelay=DUR                jitter bound (time.ParseDuration)
//	crash=RANK@PHASE            kill RANK at its first PHASE send
//	crash=RANK@sends:N          kill RANK at its Nth send
//
// PHASE is start, splitter or exchange. Example:
// "1:drop=0.01,delay=0.05,crash=2@exchange". An empty string returns
// nil (chaos off).
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
		case "drop", "delay", "dup":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("hssort: chaos %s=%q: want a probability in [0, 1]", key, val)
			}
			switch key {
			case "drop":
				cc.Drop = p
			case "delay":
				cc.Delay = p
			case "dup":
				cc.Dup = p
			}
		case "maxdelay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("hssort: chaos maxdelay=%q: %v", val, err)
			}
			cc.MaxDelay = d
		case "crash":
			rankStr, when, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("hssort: chaos crash=%q: want RANK@PHASE or RANK@sends:N", val)
			}
			rank, err := strconv.Atoi(rankStr)
			if err != nil || rank < 0 {
				return nil, fmt.Errorf("hssort: chaos crash rank %q: want a non-negative rank", rankStr)
			}
			cc.CrashRank = rank
			if nStr, isSends := strings.CutPrefix(when, "sends:"); isSends {
				n, err := strconv.Atoi(nStr)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("hssort: chaos crash sends count %q: want a positive integer", nStr)
				}
				cc.CrashAfterSends = n
			} else {
				if _, _, ok := core.PhaseTagRange(0, when); !ok {
					return nil, fmt.Errorf("hssort: chaos crash phase %q (valid values: %s)", when, strings.Join(chaosPhases, ", "))
				}
				cc.CrashPhase = when
			}
		default:
			return nil, fmt.Errorf("hssort: unknown chaos fault %q (valid keys: drop, delay, dup, maxdelay, crash)", key)
		}
	}
	return cc, nil
}
