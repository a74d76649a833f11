// Example distributed runs a real multi-process sort on localhost: the
// program re-executes itself as four worker processes (one rank each),
// the workers bootstrap a TCP mesh through rank 0's rendezvous
// listener, sort a deterministic workload twice through one engine
// (showing cross-process engine reuse), and the parent verifies the
// assembled result — partitions ordered across rank boundaries, global
// key count conserved — exiting non-zero on any violation.
//
//	go run ./examples/distributed
//
// See docs/TRANSPORTS.md ("Distributed deployment") and docs/WIRE.md
// for the protocol underneath.
package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"

	"hssort"
	"hssort/internal/dist"
)

const (
	procs   = 4
	perRank = 50_000
	runs    = 2
	rankEnv = "HSSORT_DIST_RANK"
	addrEnv = "HSSORT_DIST_COORDINATOR"
)

func main() {
	if r := os.Getenv(rankEnv); r != "" {
		rank, err := strconv.Atoi(r)
		if err != nil {
			fatal(err)
		}
		if err := worker(rank, os.Getenv(addrEnv)); err != nil {
			fatal(fmt.Errorf("rank %d: %w", rank, err))
		}
		return
	}
	if err := launch(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distributed:", err)
	os.Exit(1)
}

// worker is one rank's process: build a worker-mode engine (blocks in
// rendezvous until all four processes are up), sort twice through it,
// and report each run's partition shape on stdout.
func worker(rank int, coordinator string) error {
	cfg := hssort.Config{
		Procs:          procs,
		Epsilon:        0.05,
		Seed:           42,
		Transport:      hssort.TransportTCP,
		StreamExchange: true,
		TCP:            hssort.TCPConfig{Coordinator: coordinator, Rank: rank},
	}
	engine, err := hssort.New[int64](cfg)
	if err != nil {
		return err
	}
	defer engine.Close()

	for run := 0; run < runs; run++ {
		// Every process derives the same deterministic global input and
		// contributes its own rank's shard.
		shards := make([][]int64, procs)
		shards[rank] = dist.Spec{Kind: dist.PowerSkew, Min: 0, Max: 1 << 40}.
			Shards(perRank, procs, 42+uint64(run))[rank]
		outs, stats, err := engine.Sort(context.Background(), shards)
		if err != nil {
			return err
		}
		part := outs[rank]
		lo, hi := int64(0), int64(0)
		if len(part) > 0 {
			lo, hi = part[0], part[len(part)-1]
		}
		if !sort.SliceIsSorted(part, func(i, j int) bool { return part[i] < part[j] }) {
			return fmt.Errorf("run %d: partition not sorted", run)
		}
		fmt.Printf("PART run=%d rank=%d n=%d lo=%d hi=%d\n", run, rank, len(part), lo, hi)
		if rank == 0 {
			fmt.Printf("STATS run=%d rounds=%d imbalance=%.4f\n", run, stats.Rounds, stats.Imbalance)
		}
	}
	return nil
}

// launch forks the worker fleet and verifies the assembled output.
func launch() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Reserve a coordinator port; rank 0 rebinds it. The tiny release
	// race is why bootstrap failures retry below.
	for attempt := 1; ; attempt++ {
		lines, err := runFleet(exe)
		if err == nil {
			return verify(lines)
		}
		if attempt >= 3 {
			return err
		}
		fmt.Fprintf(os.Stderr, "retrying after bootstrap race: %v\n", err)
	}
}

func runFleet(exe string) ([]string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coordinator := ln.Addr().String()
	ln.Close()

	fmt.Printf("launching %d worker processes (coordinator %s)\n", procs, coordinator)
	var mu sync.Mutex
	var lines []string
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				fmt.Sprintf("%s=%d", rankEnv, r),
				fmt.Sprintf("%s=%s", addrEnv, coordinator))
			out, err := cmd.StdoutPipe()
			if err != nil {
				errs[r] = err
				return
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				errs[r] = err
				return
			}
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				mu.Lock()
				lines = append(lines, sc.Text())
				fmt.Printf("[rank %d] %s\n", r, sc.Text())
				mu.Unlock()
			}
			if err := cmd.Wait(); err != nil {
				errs[r] = fmt.Errorf("worker %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lines, nil
}

// verify checks the fleet's reports: every run accounts for all keys
// and partitions are ordered across rank boundaries.
func verify(lines []string) error {
	type part struct {
		n      int
		lo, hi int64
		seen   bool
	}
	parts := make([][]part, runs)
	for i := range parts {
		parts[i] = make([]part, procs)
	}
	for _, line := range lines {
		var run, rank, n int
		var lo, hi int64
		if _, err := fmt.Sscanf(line, "PART run=%d rank=%d n=%d lo=%d hi=%d", &run, &rank, &n, &lo, &hi); err != nil {
			continue
		}
		parts[run][rank] = part{n: n, lo: lo, hi: hi, seen: true}
	}
	for run := 0; run < runs; run++ {
		total := 0
		for r, p := range parts[run] {
			if !p.seen {
				return fmt.Errorf("run %d: no report from rank %d", run, r)
			}
			total += p.n
			if r > 0 && parts[run][r-1].n > 0 && p.n > 0 && parts[run][r-1].hi > p.lo {
				return fmt.Errorf("run %d: rank %d..%d boundary out of order (%d > %d)",
					run, r-1, r, parts[run][r-1].hi, p.lo)
			}
		}
		if total != procs*perRank {
			return fmt.Errorf("run %d: %d keys accounted, want %d", run, total, procs*perRank)
		}
	}
	fmt.Printf("verified: %d runs × %d keys sorted across %d processes, partitions ordered rank to rank\n",
		runs, procs*perRank, procs)
	return nil
}
