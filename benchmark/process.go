package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"hssort"
)

// probeCmdHssort is the process-level cross-check of tcp_stream: the
// cmd/hssort binary sorts the workload's shape on four worker processes
// over real sockets, and its per-rank output digests must equal the same
// binary's on the sim transport.
func probeCmdHssort(ctx context.Context, o runOpts, w engineWorkload, tr *tracer, v values) error {
	bin, err := buildTool(ctx, o.root, "hssort")
	if err != nil {
		return err
	}
	shape := []string{"-n", strconv.Itoa(w.keys(o.scale)), "-dist", w.kind.String(), "-seed", strconv.FormatUint(o.seed, 10), "-stream", "-repeat", "3", "-digest"}
	run := func(name string, args ...string) (digests []string, stats hssort.StatsSnapshot, wall time.Duration, err error) {
		runCtx, cancel := context.WithTimeout(ctx, opDeadline)
		defer cancel()
		id := tr.begin(0, "cmd_hssort", name, 0, 0)
		t0 := time.Now()
		out, err := exec.CommandContext(runCtx, bin, append(args, shape...)...).Output()
		wall = time.Since(t0)
		tr.end(id, nil)
		if err != nil {
			return nil, stats, wall, fmt.Errorf("%s: %w", name, err)
		}
		// Launched workers prefix their lines with "[rank r] ".
		for _, line := range strings.Split(string(out), "\n") {
			if _, rest, ok := strings.Cut(line, "] "); ok && strings.HasPrefix(line, "[rank ") {
				line = rest
			}
			if strings.HasPrefix(line, "digest ") {
				digests = append(digests, line)
			} else if js, ok := strings.CutPrefix(line, "stats "); ok {
				if err := json.Unmarshal([]byte(js), &stats); err != nil {
					return nil, stats, wall, fmt.Errorf("%s stats line: %w", name, err)
				}
			}
		}
		slices.Sort(digests)
		return digests, stats, wall, nil
	}
	procs := strconv.Itoa(w.procs)
	tcp, stats, wall, err := run("hssort -launch", "-launch", "local:"+procs)
	if err != nil {
		return err
	}
	sim, _, _, err := run("hssort -transport sim", "-p", procs, "-transport", "sim")
	if err != nil {
		return err
	}
	v["cmd_hssort.launch_wall_s"] = wall.Seconds()
	v["cmd_hssort.sort_ms"] = float64(stats.TotalNs) / 1e6
	if len(tcp) == w.procs && slices.Equal(tcp, sim) {
		v["cmd_hssort.digest_match"] = 1
	}
	return nil
}
