package hssort

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hssort/internal/dist"
)

// tcp_test.go holds what the cells of cells_test.go cannot express over
// the tcp backend: engine cancellation over sockets returning
// ctx.Err(); the worker-mode engine (one process per rank); and a true
// multi-process run via re-exec of this test binary.

// keyDigest is a deterministic fingerprint of one rank's output.
func keyDigest[K int64 | float64](keys []K) string {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, keys)
	return fmt.Sprintf("%d:%016x", len(keys), h.Sum64())
}

// TestTCPEngineCancellation: cancelling a sort running over sockets
// returns ctx.Err() from the engine, the engine stays usable, and Close
// releases every socket and goroutine.
func TestTCPEngineCancellation(t *testing.T) {
	const p, perRank = 4, 20000
	before := runtime.NumGoroutine()
	{
		shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, 31)
		engine, err := New[int64](Config{Procs: p, Epsilon: 0.02, Seed: 3, Transport: TransportTCP, StreamExchange: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // cancelled before the run: every rank must unblock immediately
		if _, _, err := engine.Sort(ctx, cloneShards(shards)); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled sort returned %v, want context.Canceled", err)
		}

		ctx2, cancel2 := context.WithCancel(context.Background())
		time.AfterFunc(2*time.Millisecond, cancel2) // mid-flight
		_, _, err = engine.Sort(ctx2, cloneShards(shards))
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel returned %v", err)
		}

		// The same engine — same mesh, post-abort — serves a clean sort.
		outs, _, err := engine.Sort(context.Background(), cloneShards(shards))
		if err != nil {
			t.Fatalf("sort after cancellation: %v", err)
		}
		var total int
		for r, o := range outs {
			if !slices.IsSorted(o) {
				t.Errorf("rank %d output not sorted after recovery", r)
			}
			total += len(o)
		}
		if total != p*perRank {
			t.Errorf("recovered sort moved %d keys, want %d", total, p*perRank)
		}
		engine.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------
// Worker mode (one engine per rank) and multi-process execution
// ---------------------------------------------------------------------

// freeLoopbackAddr reserves an ephemeral port and releases it for the
// coordinator to bind. The tiny bind race is covered by retries.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// workerConfig builds the worker-mode engine config for one rank.
func workerConfig(coordinator string, rank, procs int, stream bool) Config {
	return Config{
		Procs:          procs,
		Epsilon:        0.05,
		Seed:           3,
		Transport:      TransportTCP,
		StreamExchange: stream,
		TCP: TCPConfig{
			Coordinator:      coordinator,
			Rank:             rank,
			BootstrapTimeout: 20 * time.Second,
		},
	}
}

// workerShards generates the deterministic global input every worker
// derives independently (mirroring how a real deployment gives each
// process its own shard of a common dataset).
func workerShards(procs, perRank int) [][]int64 {
	return dist.Spec{Kind: dist.PowerSkew, Min: 0, Max: 1 << 40}.Shards(perRank, procs, 17)
}

// simDigests computes the oracle digests of the worker-mode input.
func simDigests(t *testing.T, procs, perRank int, runs int) [][]string {
	t.Helper()
	engine, err := New[int64](Config{Procs: procs, Epsilon: 0.05, Seed: 3, Transport: TransportSim})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	out := make([][]string, runs)
	for run := 0; run < runs; run++ {
		outs, _, err := engine.Sort(context.Background(), cloneShards(workerShards(procs, perRank)))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			out[run] = append(out[run], keyDigest(o))
		}
	}
	return out
}

// TestTCPWorkerModeEngines: p engines, each hosting one rank of a TCP
// world (exactly the multi-process drive model, inside one test
// process), sort repeatedly through independent Resets. Each engine
// returns only its own rank's partition; the assembled digests match
// the sim oracle, run after run.
func TestTCPWorkerModeEngines(t *testing.T) {
	const p, perRank, runs = 4, 2000, 3
	want := simDigests(t, p, perRank, runs)
	got := workerDigests(t, workerShards(p, perRank), runs)
	for run := 0; run < runs; run++ {
		if !slices.Equal(got[run], want[run]) {
			t.Errorf("run %d digests differ:\n tcp %v\n sim %v", run, got[run], want[run])
		}
	}
}

// TestTCPWorkerModeNaN: a NaN on one rank only. Each worker-mode engine
// takes its compute plane from its constructor and key type, never from
// its own shard, so the rank holding the NaN sorts on its peers' code
// plane, and the world matches the sim oracle with the NaN first.
func TestTCPWorkerModeNaN(t *testing.T) {
	const p, perRank = 4, 2000
	input := make([][]float64, p)
	for r, sh := range workerShards(p, perRank) {
		for _, k := range sh {
			input[r] = append(input[r], float64(k))
		}
	}
	input[1][perRank/2] = math.NaN()
	engine, err := New[float64](Config{Procs: p, Epsilon: 0.05, Seed: 3, Transport: TransportSim})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	outs, _, err := engine.Sort(bg, cloneAny(input))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(outs[0][0]) {
		t.Fatalf("sim sorted %g first, want the NaN", outs[0][0])
	}
	var want []string
	for _, o := range outs {
		want = append(want, keyDigest(o))
	}
	if got := workerDigests(t, input, 1)[0]; !slices.Equal(got, want) {
		t.Errorf("digests differ:\n tcp %v\n sim %v", got, want)
	}
}

// workerDigests runs input through a worker-mode world runs times and
// returns each run's rank digests, retrying a world lost to a bootstrap
// race.
func workerDigests[K int64 | float64](t *testing.T, input [][]K, runs int) [][]string {
	t.Helper()
	for attempt := 0; ; attempt++ {
		digests, err := runWorkerEngines(input, runs)
		if err == nil {
			return digests
		}
		if attempt >= 2 {
			t.Fatalf("worker-mode engines failed after retries: %v", err)
		}
		t.Logf("retrying after bootstrap race: %v", err)
	}
}

// runWorkerEngines drives one complete worker-mode world in-process:
// one engine per rank of input, each sorting its own shard.
func runWorkerEngines[K int64 | float64](input [][]K, runs int) ([][]string, error) {
	p := len(input)
	coordinator := ""
	{
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		coordinator = ln.Addr().String()
		ln.Close()
	}
	digests := make([][]string, runs)
	for i := range digests {
		digests[i] = make([]string, p)
	}
	var n int64
	for _, sh := range input {
		n += int64(len(sh))
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				engine, err := New[K](workerConfig(coordinator, r, p, true))
				if err != nil {
					return fmt.Errorf("rank %d: %w", r, err)
				}
				defer engine.Close()
				for run := 0; run < runs; run++ {
					shards := make([][]K, p)
					shards[r] = slices.Clone(input[r])
					outs, stats, err := engine.Sort(context.Background(), shards)
					if err != nil {
						return fmt.Errorf("rank %d run %d: %w", r, run, err)
					}
					digests[run][r] = keyDigest(outs[r])
					if r == 0 && stats.N != n {
						return fmt.Errorf("rank 0 stats.N = %d, want %d", stats.N, n)
					}
					if r != 0 {
						for q, o := range outs {
							if q != r && o != nil {
								return fmt.Errorf("rank %d received rank %d's output", r, q)
							}
						}
					}
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	return digests, errors.Join(errs...)
}

// tcpWorkerEnv triggers worker mode in TestMain when this test binary
// is re-executed as a sort worker process.
const tcpWorkerEnv = "HSSORT_TCP_WORKER"

// runTCPWorker is the re-exec entry point: spec is
// "rank=R procs=P perRank=N runs=K coordinator=ADDR" plus the optional
// failure-survival fields "heartbeat=DUR peerTimeout=DUR rejoinWait=DUR
// rejoin=1 chaos=SEED:SPEC". It sorts through a worker-mode engine and
// prints one digest line per run; a chaos crash naming this rank
// SIGKILLs the process (a real kill -9, observed by the peers as a raw
// socket sever), while a *PeerCrashError from a peer's death is printed
// as a CRASH line and the run retried — the retry blocks in the
// transport's rejoin wait until the respawned rank heals the mesh.
func runTCPWorker(spec string) int {
	var rank, procs, perRank, runs, chunk int
	var budget int64
	var coordinator, chaosSpec, spillDir string
	var heartbeat, peerTimeout, rejoinWait time.Duration
	rejoin := false
	for _, f := range strings.Fields(spec) {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "rank":
			fmt.Sscanf(v, "%d", &rank)
		case "procs":
			fmt.Sscanf(v, "%d", &procs)
		case "perRank":
			fmt.Sscanf(v, "%d", &perRank)
		case "runs":
			fmt.Sscanf(v, "%d", &runs)
		case "coordinator":
			coordinator = v
		case "heartbeat":
			heartbeat, _ = time.ParseDuration(v)
		case "peerTimeout":
			peerTimeout, _ = time.ParseDuration(v)
		case "rejoinWait":
			rejoinWait, _ = time.ParseDuration(v)
		case "rejoin":
			rejoin = v == "1"
		case "chaos":
			chaosSpec = v
		case "budget":
			fmt.Sscanf(v, "%d", &budget)
		case "spilldir":
			spillDir = v
		case "chunk":
			fmt.Sscanf(v, "%d", &chunk)
		}
	}
	cfg := workerConfig(coordinator, rank, procs, true)
	cfg.TCP.HeartbeatInterval = heartbeat
	cfg.TCP.PeerTimeout = peerTimeout
	cfg.TCP.RejoinWait = rejoinWait
	cfg.TCP.Rejoin = rejoin
	cfg.MemoryBudget = budget
	cfg.SpillDir = spillDir
	if chunk != 0 {
		cfg.ChunkKeys = chunk
	}
	if chaosSpec != "" {
		cc, err := ParseChaosSpec(chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker %d: %v\n", rank, err)
			return 1
		}
		cc.OnCrash = func(int) {
			// A real crash: no deferred Close, no shutdown handshake.
			proc, _ := os.FindProcess(os.Getpid())
			proc.Kill()
			select {} // unreachable; Kill is SIGKILL
		}
		cfg.Chaos = cc
	}
	engine, err := New[int64](cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", rank, err)
		return 1
	}
	defer engine.Close()
	for run, attempts := 0, 0; run < runs; {
		shards := make([][]int64, procs)
		shards[rank] = slices.Clone(workerShards(procs, perRank)[rank])
		outs, stats, err := engine.Sort(context.Background(), shards)
		var crash *PeerCrashError
		if errors.As(err, &crash) {
			if attempts++; attempts > 5 {
				fmt.Fprintf(os.Stderr, "worker %d run %d: still crashed after %d attempts: %v\n", rank, run, attempts, err)
				return 1
			}
			fmt.Printf("CRASH run=%d rank=%d lost=%d\n", run, rank, crash.Rank)
			continue // retry the run; Reset waits out the rejoin
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker %d run %d: %v\n", rank, run, err)
			return 1
		}
		fmt.Printf("DIGEST run=%d rank=%d %s\n", run, rank, keyDigest(outs[rank]))
		if rank == 0 && stats.Respawns > 0 {
			fmt.Printf("RESPAWNS run=%d %d\n", run, stats.Respawns)
		}
		if rank == 0 && stats.SpilledBytes > 0 {
			fmt.Printf("SPILL run=%d bytes=%d\n", run, stats.SpilledBytes)
		}
		run++
	}
	return 0
}

// TestTCPMultiProcess is the real thing: four OS processes (re-execs of
// this test binary), a rendezvous over localhost, two sorts through
// each process's engine, rank-identical digests vs the sim oracle.
func TestTCPMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	const p, perRank, runs = 4, 2000, 2
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want := simDigests(t, p, perRank, runs)

	var lines []string
	for attempt := 0; ; attempt++ {
		lines, err = launchWorkers(t, exe, p, perRank, runs)
		if err == nil {
			break
		}
		if attempt >= 2 {
			t.Fatalf("worker processes failed after retries: %v", err)
		}
		t.Logf("retrying after bootstrap race: %v", err)
	}

	got := make([][]string, runs)
	for i := range got {
		got[i] = make([]string, p)
	}
	for _, line := range lines {
		var run, rank int
		var digest string
		if _, err := fmt.Sscanf(line, "DIGEST run=%d rank=%d %s", &run, &rank, &digest); err != nil {
			continue
		}
		got[run][rank] = digest
	}
	for run := 0; run < runs; run++ {
		if !slices.Equal(got[run], want[run]) {
			t.Errorf("run %d digests differ:\n tcp %v\n sim %v", run, got[run], want[run])
		}
	}
}

// launchWorkers forks p worker processes and collects their stdout.
func launchWorkers(t *testing.T, exe string, p, perRank, runs int) ([]string, error) {
	t.Helper()
	coordinator := freeLoopbackAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var mu sync.Mutex
	var lines []string
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cmd := exec.CommandContext(ctx, exe, "-test.run=NONE")
			cmd.Env = append(os.Environ(), fmt.Sprintf("%s=rank=%d procs=%d perRank=%d runs=%d coordinator=%s",
				tcpWorkerEnv, r, p, perRank, runs, coordinator))
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
				mu.Unlock()
			}
			if err := cmd.Wait(); err != nil {
				errs[r] = fmt.Errorf("worker %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	return lines, errors.Join(errs...)
}

// TestTCPMultiProcessKillRespawn is the failure-survival counterpart of
// TestTCPMultiProcess: four OS processes, one of which SIGKILLs itself
// mid-exchange of the first sort (a seeded chaos crash — a real kill
// -9, no shutdown handshake). The surviving processes report the crash
// as a *PeerCrashError naming the victim, the harness respawns the
// victim with the rejoin flag, the retried sort and the following one
// complete, and every digest matches the sim oracle.
func TestTCPMultiProcessKillRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process kill/respawn run")
	}
	const p, perRank, runs, victim = 4, 1500, 2, 2
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want := simDigests(t, p, perRank, runs)

	var lines []string
	for attempt := 0; ; attempt++ {
		lines, err = launchKillRespawn(t, exe, p, perRank, runs, victim)
		if err == nil {
			break
		}
		if attempt >= 2 {
			t.Fatalf("kill/respawn fleet failed after retries: %v", err)
		}
		t.Logf("retrying after bootstrap race: %v", err)
	}

	got := make([][]string, runs)
	for i := range got {
		got[i] = make([]string, p)
	}
	crashes := make(map[int]int) // reporting rank -> lost rank
	respawns := 0
	for _, line := range lines {
		var run, rank, lost, n int
		var digest string
		switch {
		case scanLine(line, "DIGEST run=%d rank=%d %s", &run, &rank, &digest):
			got[run][rank] = digest
		case scanLine(line, "CRASH run=%d rank=%d lost=%d", &run, &rank, &lost):
			crashes[rank] = lost
		case scanLine(line, "RESPAWNS run=%d %d", &run, &n):
			respawns = max(respawns, n)
		}
	}
	for run := 0; run < runs; run++ {
		if !slices.Equal(got[run], want[run]) {
			t.Errorf("run %d digests differ:\n tcp %v\n sim %v", run, got[run], want[run])
		}
	}
	// Every surviving process must have observed the same typed crash,
	// naming the same rank.
	if len(crashes) < p-1 {
		t.Errorf("only %d of %d survivors reported the crash: %v", len(crashes), p-1, crashes)
	}
	for rank, lost := range crashes {
		if lost != victim {
			t.Errorf("rank %d reported lost rank %d, want %d", rank, lost, victim)
		}
	}
	// The respawn is visible in the post-rejoin run's aggregated stats:
	// each survivor adopted one rejoined edge and the joiner respawned.
	if respawns < p-1 {
		t.Errorf("rank 0 stats report %d respawns, want >= %d", respawns, p-1)
	}
}

// scanLine is a strict Sscanf wrapper: true only when every field
// matched.
func scanLine(line, format string, args ...any) bool {
	n, err := fmt.Sscanf(line, format, args...)
	return err == nil && n == len(args)
}

// launchKillRespawn forks the kill/respawn worker fleet: p-1 survivors
// with heartbeats and a rejoin wait, one victim armed with a seeded
// self-SIGKILL at its first exchange-phase send. When the victim dies
// (which must be by signal, not a clean exit), it is relaunched with
// rejoin=1; all stdout lines are collected.
func launchKillRespawn(t *testing.T, exe string, p, perRank, runs, victim int) ([]string, error) {
	t.Helper()
	coordinator := freeLoopbackAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var mu sync.Mutex
	var lines []string
	// run starts one worker process and blocks until it exits, draining
	// its stdout to EOF before Wait (Wait closes the pipe).
	run := func(spec string) error {
		cmd := exec.CommandContext(ctx, exe, "-test.run=NONE")
		cmd.Env = append(os.Environ(), tcpWorkerEnv+"="+spec)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
		}
		return cmd.Wait()
	}
	base := func(r int) string {
		return fmt.Sprintf("rank=%d procs=%d perRank=%d runs=%d coordinator=%s heartbeat=500ms peerTimeout=5s rejoinWait=60s",
			r, p, perRank, runs, coordinator)
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				if r != victim {
					if err := run(base(r)); err != nil {
						return fmt.Errorf("worker %d: %w", r, err)
					}
					return nil
				}
				// The victim: armed to SIGKILL itself at its first
				// exchange-phase send of the first sort.
				if err := run(base(r) + fmt.Sprintf(" chaos=9:crash=%d@exchange", victim)); err == nil {
					return fmt.Errorf("victim exited cleanly; the chaos crash never fired")
				}
				// Respawn with the rejoin handshake; it re-registers with
				// the coordinator, redials the survivors and re-executes
				// its shard from run 0.
				if err := run(base(r) + " rejoin=1"); err != nil {
					return fmt.Errorf("respawned victim: %w", err)
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	return lines, errors.Join(errs...)
}

// TestTCPMultiProcessSpillKillRespawn is the out-of-core plane's
// crash-survival gate: four OS processes sorting out of core (a
// MemoryBudget of a quarter of each rank's data, small streamed
// chunks, a shared SpillDir), one of which SIGKILLs itself
// mid-exchange, while the survivors hold open divert writers. The
// survivors report the typed *PeerCrashError, the respawned victim
// reclaims its predecessor's rank directory (wiping whatever run files
// it held), every digest matches the in-memory sim oracle,
// and after the fleet closes the shared SpillDir is empty — no
// orphaned run files survive.
func TestTCPMultiProcessSpillKillRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process kill/respawn run")
	}
	const p, perRank, runs, victim = 4, 20000, 2, 2
	budget := int64(perRank) * 8 / 4
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want := simDigests(t, p, perRank, runs)
	spillDir := t.TempDir()

	var lines []string
	for attempt := 0; ; attempt++ {
		lines, err = launchSpillKillRespawn(t, exe, p, perRank, runs, victim, budget, spillDir)
		if err == nil {
			break
		}
		if attempt >= 2 {
			t.Fatalf("spill kill/respawn fleet failed after retries: %v", err)
		}
		t.Logf("retrying after bootstrap race: %v", err)
	}

	got := make([][]string, runs)
	for i := range got {
		got[i] = make([]string, p)
	}
	crashes := make(map[int]int)
	spilled := make(map[int]int64) // run -> global spilled bytes (rank 0's aggregate)
	for _, line := range lines {
		var run, rank, lost int
		var bytes int64
		var digest string
		switch {
		case scanLine(line, "DIGEST run=%d rank=%d %s", &run, &rank, &digest):
			got[run][rank] = digest
		case scanLine(line, "CRASH run=%d rank=%d lost=%d", &run, &rank, &lost):
			crashes[rank] = lost
		case scanLine(line, "SPILL run=%d bytes=%d", &run, &bytes):
			spilled[run] = bytes
		}
	}
	for run := 0; run < runs; run++ {
		if !slices.Equal(got[run], want[run]) {
			t.Errorf("run %d digests differ:\n tcp %v\n sim %v", run, got[run], want[run])
		}
		if spilled[run] == 0 {
			t.Errorf("run %d reports no spilled bytes; the budget never engaged", run)
		}
	}
	if len(crashes) < p-1 {
		t.Errorf("only %d of %d survivors reported the crash: %v", len(crashes), p-1, crashes)
	}
	for rank, lost := range crashes {
		if lost != victim {
			t.Errorf("rank %d reported lost rank %d, want %d", rank, lost, victim)
		}
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("SpillDir holds orphans after the fleet closed: %v", names)
	}
}

// launchSpillKillRespawn forks the out-of-core kill/respawn fleet:
// every worker sorts under the given MemoryBudget with run files in
// the shared spillDir, and the victim is armed with a seeded
// self-SIGKILL at its first exchange-phase send.
func launchSpillKillRespawn(t *testing.T, exe string, p, perRank, runs, victim int, budget int64, spillDir string) ([]string, error) {
	t.Helper()
	coordinator := freeLoopbackAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var mu sync.Mutex
	var lines []string
	run := func(spec string) error {
		cmd := exec.CommandContext(ctx, exe, "-test.run=NONE")
		cmd.Env = append(os.Environ(), tcpWorkerEnv+"="+spec)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
		}
		return cmd.Wait()
	}
	base := func(r int) string {
		return fmt.Sprintf("rank=%d procs=%d perRank=%d runs=%d coordinator=%s heartbeat=500ms peerTimeout=5s rejoinWait=60s budget=%d spilldir=%s chunk=1024",
			r, p, perRank, runs, coordinator, budget, spillDir)
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				if r != victim {
					if err := run(base(r)); err != nil {
						return fmt.Errorf("worker %d: %w", r, err)
					}
					return nil
				}
				if err := run(base(r) + fmt.Sprintf(" chaos=9:crash=%d@exchange", victim)); err == nil {
					return fmt.Errorf("victim exited cleanly; the chaos crash never fired")
				}
				if err := run(base(r) + " rejoin=1"); err != nil {
					return fmt.Errorf("respawned victim: %w", err)
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	return lines, errors.Join(errs...)
}
