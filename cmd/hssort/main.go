// Command hssort sorts a synthetic workload with Histogram Sort with
// Sampling and prints the paper's metrics: phase breakdown,
// histogramming rounds, sample sizes, communication volume, and the
// achieved load imbalance. The paper's baselines are experiment code:
// cmd/experiments -exp sec4.2 and fig6.2.
//
// Examples:
//
//	hssort -p 16 -n 100000                  # HSS on uniform keys
//	hssort -p 16 -dist powerskew -eps 0.02  # skewed keys, tighter balance
//	hssort -p 16 -dist dupheavy -tag        # §4.3 duplicate tagging
//	hssort -p 16 -keys bytes -dist urllike  # []byte keys, prefix-code plane
//
// Multi-process deployment (the tcp transport; see docs/WIRE.md and the
// "Distributed deployment" in docs/TRANSPORTS.md):
//
//	hssort -transport tcp -launch local:4 -n 100000   # fork 4 workers on localhost
//
//	# or launch the worker processes yourself (possibly on different hosts):
//	hssort -transport tcp -coordinator host0:9999 -rank 0 -p 4 ...
//	hssort -transport tcp -coordinator host0:9999 -rank 1 -p 4 ...
//	...
//
// Every worker must be started with identical workload flags (-n, -dist,
// -seed, …): each process derives the deterministic global input
// and sorts its own rank's shard. -digest prints per-rank output
// fingerprints that are comparable across transports, which is how the
// CI smoke asserts rank-identical output of a 4-process tcp run against
// the in-process sim oracle.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hssort"
	"hssort/internal/dist"
	"hssort/internal/tablefmt"
)

var distributions = map[string]dist.Kind{
	"uniform":      dist.Uniform,
	"gaussian":     dist.Gaussian,
	"exponential":  dist.Exponential,
	"powerskew":    dist.PowerSkew,
	"zipfian":      dist.Zipfian,
	"almostsorted": dist.AlmostSorted,
	"dupheavy":     dist.DuplicateHeavy,
	"staircase":    dist.Staircase,
}

var byteDistributions = map[string]dist.ByteKind{
	"hashlike": dist.HashLike,
	"urllike":  dist.URLLike,
	"loglines": dist.LogLines,
}

func names[V any](m map[string]V) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return strings.Join(out, ", ")
}

func main() {
	var (
		p       = flag.Int("p", 8, "simulated processors")
		n       = flag.Int("n", 100000, "keys per processor")
		keyType = flag.String("keys", "int64", "key type: int64, or bytes for variable-length byte strings on the prefix-code plane")
		dsName  = flag.String("dist", "uniform", "distribution: "+names(distributions)+"; with -keys bytes: "+names(byteDistributions)+" (default hashlike)")
		eps     = flag.Float64("eps", 0.05, "load-imbalance threshold")
		buckets = flag.Int("buckets", 0, "output buckets (default: p)")
		tag     = flag.Bool("tag", false, "tag duplicates (§4.3)")
		seed    = flag.Uint64("seed", 1, "random seed")
		trName  = flag.String("transport", "sim", "comm backend — "+strings.Join(hssort.TransportSummaries(), "; "))
		stream  = flag.Bool("stream", false, "streaming chunked exchange overlapped with the merge")
		workers = flag.Int("workers", 0, "per-rank compute worker pool size (0 = GOMAXPROCS split across hosted ranks, 1 = serial)")
		chunk   = flag.Int("chunk", 0, "streaming-exchange chunk size in keys (implies -stream; default 64Ki)")
		budget  = flag.Int64("mem-budget", 0, "per-rank memory budget in bytes: bounds the engine's sort scratch and in-flight exchange/merge data, spilling exchange data that would exceed it to compressed run files; never bounds the resident input shard (0 = in-memory)")
		spillSt = flag.String("spill-dir", "", "directory for out-of-core run files (requires -mem-budget; default: per-rank dirs under the system temp dir)")
		repeat  = flag.Int("repeat", 1, "sorts to run through one engine (fresh shards each time; demonstrates Sorter reuse)")
		plan    = flag.Bool("plan", false, "prepare a splitter plan once and seed every sort with it (0 histogram rounds per sort while it meets 1+eps)")
		verbose = flag.Bool("v", false, "verify the output is globally sorted")

		coordinator = flag.String("coordinator", "", "tcp worker mode: host:port of the rank-0 rendezvous listener (requires -transport tcp and -rank)")
		rank        = flag.Int("rank", 0, "tcp worker mode: this process's rank in [0, p)")
		listenAddr  = flag.String("listen", "", "tcp worker mode: bind address of this process's data listener (default 127.0.0.1:0)")
		launch      = flag.String("launch", "", "convenience launcher: local:N forks N tcp worker processes on localhost and relays their output")
		digest      = flag.Bool("digest", false, "print per-rank output fingerprints (comparable across transports)")

		heartbeat   = flag.Duration("heartbeat", 0, "tcp: liveness-probe period on idle links (default peer-timeout/3 when -peer-timeout is set)")
		peerTimeout = flag.Duration("peer-timeout", 0, "tcp: declare a silent peer crashed after this long (0 = detect severed sockets only)")
		rejoin      = flag.Bool("rejoin", false, "tcp worker mode: rejoin the live mesh in place of this rank's crashed predecessor instead of bootstrapping a new world")
		rejoinWait  = flag.Duration("rejoin-wait", 0, "tcp: after a peer crash, retry the sort and wait up to this long for the respawned rank to rejoin (0 = fail on first crash)")
		chaosSpec   = flag.String("chaos", "", "deterministic fault injection \"seed:delay=P,crash=RANK@PHASE\" (PHASE: start, splitter, exchange); in worker mode a crash of this rank is a real kill -9")
	)
	flag.Parse()

	transport, err := hssort.ParseTransport(*trName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	chaos, err := hssort.ParseChaosSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var kind dist.Kind
	var byteKind dist.ByteKind
	var ok bool
	byteKeys := false
	switch *keyType {
	case "int64":
		kind, ok = distributions[*dsName]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown distribution %q; known: %s\n", *dsName, names(distributions))
			os.Exit(2)
		}
	case "bytes":
		byteKeys = true
		if *dsName == "uniform" {
			*dsName = "hashlike" // the int64 default maps to the byte-key default
		}
		byteKind, ok = byteDistributions[*dsName]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown byte distribution %q; known: %s\n", *dsName, names(byteDistributions))
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown key type %q; known: int64, bytes\n", *keyType)
		os.Exit(2)
	}

	if *launch != "" {
		os.Exit(launchWorkers(*launch))
	}
	workerMode := *coordinator != ""
	if workerMode {
		if transport != hssort.TransportTCP {
			fmt.Fprintln(os.Stderr, "-coordinator requires -transport tcp")
			os.Exit(2)
		}
		if *rank < 0 || *rank >= *p {
			fmt.Fprintf(os.Stderr, "-rank %d outside [0, %d)\n", *rank, *p)
			os.Exit(2)
		}
		if *verbose || *plan {
			fmt.Fprintln(os.Stderr, "-v and -plan need the whole output in one process; unavailable in tcp worker mode")
			os.Exit(2)
		}
	}

	cfg := hssort.Config{
		Procs:          *p,
		Epsilon:        *eps,
		Buckets:        *buckets,
		TagDuplicates:  *tag,
		Seed:           *seed,
		Transport:      transport,
		StreamExchange: *stream,
		ChunkKeys:      *chunk,
		Workers:        *workers,
		Chaos:          chaos,
		MemoryBudget:   *budget,
		SpillDir:       *spillSt,
	}
	cfg.TCP = hssort.TCPConfig{
		HeartbeatInterval: *heartbeat,
		PeerTimeout:       *peerTimeout,
		RejoinWait:        *rejoinWait,
	}
	if workerMode {
		cfg.TCP.Coordinator = *coordinator
		cfg.TCP.Rank = *rank
		cfg.TCP.ListenAddr = *listenAddr
		cfg.TCP.Rejoin = *rejoin
		if chaos != nil && chaos.CrashPhase != "" {
			// A worker-mode chaos crash is the real thing: the victim
			// process SIGKILLs itself mid-protocol (no shutdown handshake,
			// peers see a severed socket), exactly what the respawn +
			// rejoin machinery exists to survive.
			chaos.OnCrash = func(int) {
				proc, _ := os.FindProcess(os.Getpid())
				proc.Kill()
				select {}
			}
		}
	}

	// The engine is built once; Ctrl-C cancels the in-flight sort on
	// every simulated rank through the context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	o := runOpts{
		distName: *dsName, rank: *rank, workerMode: workerMode,
		plan: *plan, repeat: *repeat, verbose: *verbose, digest: *digest,
		rejoinWait: *rejoinWait,
	}
	var code int
	if byteKeys {
		spec := dist.ByteSpec{Kind: byteKind}
		code = run(ctx, cfg, o, workload[[]byte]{
			gen:       func(i int) [][][]byte { return spec.Shards(*n, *p, *seed+uint64(i)) },
			newEngine: hssort.NewBytes,
			compare:   bytes.Compare,
			appendKey: appendBytes,
		})
	} else {
		spec := dist.Spec{Kind: kind}
		code = run(ctx, cfg, o, workload[int64]{
			gen:       func(i int) [][]int64 { return spec.Shards(*n, *p, *seed+uint64(i)) },
			newEngine: hssort.New[int64],
			compare:   cmp.Compare[int64],
			appendKey: appendInt64,
		})
	}
	os.Exit(code)
}

// workload is one key type's side of a run.
type workload[K any] struct {
	// gen draws the global input of sort i: the -seed stream plus i.
	gen       func(i int) [][]K
	newEngine func(hssort.Config) (*hssort.Sorter[K], error)
	compare   func(K, K) int
	// appendKey writes a key as the -digest fingerprint hashes it.
	appendKey func([]byte, K) []byte
}

// runOpts carries the flag values run needs beyond Config.
type runOpts struct {
	distName   string
	rank       int
	workerMode bool
	plan       bool
	repeat     int
	verbose    bool
	digest     bool
	rejoinWait time.Duration
}

// run is the whole flow for one key type: draw the input (in worker mode
// only this rank's shard), build the engine, sortRuns, report, print
// digests, and with -v verify the output is the globally sorted
// permutation of the input. It returns the exit code.
func run[K any](ctx context.Context, cfg hssort.Config, o runOpts, w workload[K]) int {
	shards := w.gen(0)
	if o.workerMode {
		// Each process derives the deterministic global input and keeps
		// only its own rank's shard; peers sort theirs.
		for i := range shards {
			if i != o.rank {
				shards[i] = nil
			}
		}
	}
	var input []K
	if o.verbose {
		input = slices.Concat(shards...)
	}

	engine, err := w.newEngine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer engine.Close()

	outs, stats, wall, err := sortRuns(ctx, engine, o.plan, o.repeat, o.rejoinWait, shards, w.gen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if o.workerMode && o.rank != 0 {
		// Peers report their partition; whole-run stats live on rank 0.
		fmt.Printf("hss: rank %d/%d sorted its partition (%s keys received) in %v over tcp\n",
			o.rank, cfg.Procs, tablefmt.Count(float64(totalKeys(outs))), wall.Round(time.Millisecond))
		if o.digest {
			printDigests(outs, o.rank, true, w.appendKey)
		}
		return 0
	}
	report{cfg: cfg, distName: o.distName, wall: wall, stats: stats, workerMode: o.workerMode}.print()
	if o.digest {
		printDigests(outs, o.rank, o.workerMode, w.appendKey)
		printStatsJSON(stats)
	}

	if o.verbose {
		slices.SortFunc(input, w.compare)
		for _, part := range outs {
			if !slices.IsSortedFunc(part, w.compare) {
				fmt.Fprintln(os.Stderr, "FAIL: a rank's output is not sorted")
				return 1
			}
		}
		equal := func(a, b K) bool { return w.compare(a, b) == 0 }
		if !slices.EqualFunc(slices.Concat(outs...), input, equal) {
			fmt.Fprintln(os.Stderr, "FAIL: output is not the sorted permutation of the input")
			return 1
		}
		fmt.Println("\nverified: output is the globally sorted permutation of the input")
	}
	return 0
}

// totalKeys counts the keys across a rank's output partitions.
func totalKeys[K any](outs [][]K) int {
	var total int
	for _, o := range outs {
		total += len(o)
	}
	return total
}

// report prints the whole-run metrics table. It is key-type agnostic:
// run feeds it the same Config and Stats for either key type.
type report struct {
	cfg        hssort.Config
	distName   string
	wall       time.Duration
	stats      hssort.Stats
	workerMode bool
}

func (r report) print() {
	stats := r.stats
	world := "simulated processors"
	if r.workerMode {
		world = "worker processes"
	}
	fmt.Printf("hss: sorted %s %s keys on %d %s in %v (%s transport)\n\n",
		tablefmt.Count(float64(stats.N)), r.distName, r.cfg.Procs, world,
		r.wall.Round(time.Millisecond), r.cfg.Transport)
	if r.cfg.Transport == hssort.TransportInproc {
		fmt.Println("note: the inproc transport does no byte accounting; byte/message metrics read zero")
		fmt.Println()
	}
	if r.cfg.Transport == hssort.TransportTCP {
		fmt.Println("note: tcp byte/message metrics are measured wire traffic (headers included), not the sim model")
		if r.workerMode {
			fmt.Println("note: in worker mode the byte/message totals cover this process's rank only")
		}
		fmt.Println()
	}
	t := tablefmt.New("metric", "value")
	t.AddRow("local sort (max over ranks)", stats.LocalSort.Round(10*time.Microsecond).String())
	t.AddRow("splitter determination", stats.Splitter.Round(10*time.Microsecond).String())
	t.AddRow("data exchange", stats.Exchange.Round(10*time.Microsecond).String())
	t.AddRow("final merge", stats.Merge.Round(10*time.Microsecond).String())
	// A memory budget streams the exchange too (exchange.ExchangeMerge).
	if r.cfg.StreamExchange || r.cfg.ChunkKeys > 0 || r.cfg.MemoryBudget > 0 {
		t.AddRow("merge overlapped with exchange", stats.ExchangeOverlap.Round(10*time.Microsecond).String())
		t.AddRow("peak in-flight exchange data", tablefmt.Bytes(float64(stats.PeakInFlightBytes)))
	}
	if stats.Workers > 1 {
		t.AddRow("workers per rank", fmt.Sprintf("%d (%d forks, %d parallel tasks)", stats.Workers, stats.ParSpawned, stats.ParTasks))
	}
	if r.cfg.MemoryBudget > 0 {
		t.AddRow("memory budget per rank", tablefmt.Bytes(float64(r.cfg.MemoryBudget)))
		t.AddRow("spilled to run files", fmt.Sprintf("%s (%s on disk, %d reads)",
			tablefmt.Bytes(float64(stats.SpilledBytes)), tablefmt.Bytes(float64(stats.SpillFileBytes)), stats.SpillReads))
		t.AddRow("peak spill-managed resident", tablefmt.Bytes(float64(stats.PeakResidentBytes)))
	}
	t.AddRow("histogramming rounds", fmt.Sprintf("%d", stats.Rounds))
	if stats.Rounds > 0 {
		t.AddRow("sample per round", fmt.Sprint(stats.SamplePerRound))
		t.AddRow("coverage per round (G_j)", fmt.Sprint(stats.CoveragePerRound))
	}
	t.AddRow("total sample (probe keys)", fmt.Sprintf("%d", stats.TotalSample))
	t.AddRow("splitter-phase bytes", tablefmt.Bytes(float64(stats.SplitterBytes)))
	t.AddRow("exchange-phase bytes", tablefmt.Bytes(float64(stats.ExchangeBytes)))
	t.AddRow("total messages", fmt.Sprintf("%d", stats.TotalMsgs))
	if stats.PrefixCollisions > 0 {
		t.AddRow("prefix collisions (tie-broken)", fmt.Sprintf("%d", stats.PrefixCollisions))
	}
	t.AddRow("load imbalance (max/avg)", fmt.Sprintf("%.4f (target <= %.4f)", stats.Imbalance, 1+r.cfg.Epsilon))
	fmt.Print(t.String())
}

// sortRuns is the engine lifecycle both key types share: with plan, one
// Plan on the input that then seeds every sort; repeat sorts through the
// one engine (at least one), the warm-ups on gen(i+1) shards and the
// last on shards itself, which -v then verifies. A sort consumes its
// input, so a retry after a peer crash sorts the same shards generated
// anew — gen(0) for the last — not what the failed attempt left behind.
// It returns the last sort's output and stats and the wall time of all
// of them.
func sortRuns[K any](ctx context.Context, engine sorter[K], plan bool, repeat int, rejoinWait time.Duration, shards [][]K, gen func(i int) [][]K) (outs [][]K, stats hssort.Stats, wall time.Duration, err error) {
	var splitterPlan *hssort.Plan[K]
	if plan {
		planStart := time.Now()
		if splitterPlan, err = engine.Plan(ctx, shards); err != nil {
			return nil, stats, 0, err
		}
		fmt.Printf("plan: %d splitters in %d rounds (%d sample keys, achieved eps %.4f vs target %.4f) in %v\n\n",
			len(splitterPlan.Splitters), splitterPlan.Rounds, splitterPlan.TotalSample,
			splitterPlan.AchievedEpsilon, splitterPlan.Epsilon,
			time.Since(planStart).Round(time.Millisecond))
	}
	start := time.Now()
	runs := max(repeat, 1)
	var retries retryBudget
	for i := 0; i < runs; {
		work := shards
		switch {
		case i < runs-1:
			work = gen(i + 1)
		case retries.attempts > 0:
			work = gen(0)
		}
		if splitterPlan != nil {
			outs, stats, err = engine.SortWithPlan(ctx, splitterPlan, work)
		} else {
			outs, stats, err = engine.Sort(ctx, work)
		}
		if err != nil {
			if retries.retry(err, rejoinWait) {
				continue // the respawned rank rejoins; re-run this sort
			}
			return nil, stats, 0, err
		}
		retries = retryBudget{} // the budget counts consecutive crashes only
		i++
	}
	wall = time.Since(start)
	if runs > 1 {
		fmt.Printf("ran %d sorts through one engine (%v/sort); metrics below describe the last\n\n",
			runs, (wall / time.Duration(runs)).Round(time.Microsecond))
	}
	return outs, stats, wall, nil
}

// sorter is what sortRuns drives of a *hssort.Sorter.
type sorter[K any] interface {
	Plan(ctx context.Context, shards [][]K) (*hssort.Plan[K], error)
	Sort(ctx context.Context, shards [][]K) ([][]K, hssort.Stats, error)
	SortWithPlan(ctx context.Context, plan *hssort.Plan[K], shards [][]K) ([][]K, hssort.Stats, error)
}

// retryBudget retries a sort that failed on a peer crash while the
// operator respawns the lost rank (-rejoin-wait > 0): the next attempt
// blocks in the transport's rejoin wait until the mesh heals. Any other
// error, or a sixth consecutive crash, stops the retries; sortRuns
// restores the budget after every successful sort.
type retryBudget struct{ attempts int }

func (b *retryBudget) retry(err error, rejoinWait time.Duration) bool {
	var crash *hssort.PeerCrashError
	if rejoinWait <= 0 || !errors.As(err, &crash) {
		return false
	}
	if b.attempts++; b.attempts > 5 {
		return false
	}
	fmt.Fprintf(os.Stderr, "peer rank %d crashed mid-sort; retrying once it rejoins (attempt %d)\n",
		crash.Rank, b.attempts)
	return true
}

// printStatsJSON emits the run's statistics as one machine-readable
// "stats {json}" line (hssort.Stats.Snapshot) next to the digest
// lines, so scripted runs can diff digests and scrape metrics from one
// invocation. Digest consumers key on the "digest " prefix and are
// unaffected.
func printStatsJSON(stats hssort.Stats) {
	b, err := json.Marshal(stats)
	if err != nil {
		return
	}
	fmt.Printf("stats %s\n", b)
}

// printDigests emits one deterministic fingerprint line per output
// partition: FNV-64a over each key as appendKey writes it. The lines are
// identical for rank-identical output, whatever transport produced it —
// diffing the sorted digest lines of a tcp worker fleet against a sim
// run is the cross-process correctness check the CI smoke performs.
func printDigests[K any](outs [][]K, rank int, workerMode bool, appendKey func([]byte, K) []byte) {
	var b []byte
	for r, o := range outs {
		if workerMode && r != rank {
			continue // peers print their own
		}
		h := fnv.New64a()
		for _, k := range o {
			b = appendKey(b[:0], k)
			h.Write(b)
		}
		fmt.Printf("digest rank=%d n=%d fnv=%016x\n", r, len(o), h.Sum64())
	}
}

// appendInt64 writes an int64 key's 8 little-endian bytes.
func appendInt64(b []byte, k int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(k)) }

// appendBytes writes a byte-string key length-prefixed, so the
// fingerprint distinguishes {"ab","c"} from {"a","bc"}.
func appendBytes(b, k []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(k))), k...)
}

// launchWorkers implements -launch local:N: fork N copies of this
// binary as tcp worker processes on localhost (rank 0 doubling as the
// rendezvous coordinator), relay their output line-atomically, and exit
// non-zero if any worker fails.
func launchWorkers(spec string) int {
	mode, arg, ok := strings.Cut(spec, ":")
	if !ok || mode != "local" {
		fmt.Fprintf(os.Stderr, "unsupported -launch %q (supported: local:N)\n", spec)
		return 2
	}
	procs, err := strconv.Atoi(arg)
	if err != nil || procs < 1 {
		fmt.Fprintf(os.Stderr, "bad worker count in -launch %q\n", spec)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Reserve an ephemeral port for the coordinator. The port is
	// released before rank 0 rebinds it — a tiny race that a stray
	// process on localhost could lose; rerun on the (rare) bootstrap
	// failure.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	coordinator := ln.Addr().String()
	ln.Close()

	// Forward every flag except the launcher's own, overriding the
	// world size with the worker count. -listen must not propagate: the
	// workers are loopback processes with ephemeral ports, and a shared
	// explicit bind address would collide across ranks.
	var common []string
	// -rejoin also stays local: a fresh fleet bootstraps a new world,
	// only a respawned single rank rejoins an existing one.
	skip := map[string]bool{"launch": true, "coordinator": true, "rank": true, "p": true, "transport": true, "listen": true, "rejoin": true}
	flag.Visit(func(f *flag.Flag) {
		if !skip[f.Name] {
			common = append(common, "-"+f.Name+"="+f.Value.String())
		}
	})
	common = append(common, "-transport=tcp", fmt.Sprintf("-p=%d", procs))

	fmt.Printf("launching %d tcp worker processes (coordinator %s)\n", procs, coordinator)
	var mu sync.Mutex // line-atomic relay of worker output
	var wg sync.WaitGroup
	fails := make([]error, procs)
	for r := 0; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			args := append(slices.Clone(common), "-coordinator="+coordinator, fmt.Sprintf("-rank=%d", r))
			cmd := exec.Command(exe, args...)
			out, err := cmd.StdoutPipe()
			if err != nil {
				fails[r] = err
				return
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				fails[r] = err
				return
			}
			sc := bufio.NewScanner(out)
			sc.Buffer(make([]byte, 1<<16), 1<<20)
			for sc.Scan() {
				mu.Lock()
				fmt.Printf("[rank %d] %s\n", r, sc.Text())
				mu.Unlock()
			}
			if err := cmd.Wait(); err != nil {
				fails[r] = fmt.Errorf("worker %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()
	code := 0
	for _, err := range fails {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	return code
}
