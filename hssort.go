// Package hssort is a Go reproduction of "Histogram Sort with Sampling"
// (Harsh; Kale, Solomonik — SPAA 2019 / UIUC 2017): a distributed
// splitter-based parallel sorting library with provable (1+ε) load
// balance.
//
// The library simulates a distributed-memory machine: Sort spawns one
// goroutine per processor, all communication flows through an explicit
// message-passing runtime with byte accounting, and the returned Stats
// report the BSP quantities the paper measures (per-phase critical-path
// times, communication volume, histogramming rounds, sample sizes, and
// the achieved load imbalance).
//
// Quick start:
//
//	shards := ...           // [][]int64: one slice per simulated processor
//	cfg := hssort.Config{Procs: len(shards), Epsilon: 0.05}
//	out, stats, err := hssort.Sort(cfg, shards)
//
// out[i] is processor i's partition of the global sorted order;
// stats.Imbalance ≤ 1+ε with high probability.
//
// Services that sort repeatedly should hold a Sorter engine (New,
// NewFunc, NewKV, NewBytes) instead of calling Sort in a loop: the
// engine builds the simulated machine once and reuses it every call,
// threads a context.Context through every phase, and exposes splitter
// Plans — SortSeeded starts a sort from the splitters of an earlier one
// (zero histogramming rounds while they still meet 1+ε, a refinement of
// them when they do not) and returns the splitters it ended with; Plan
// and SortWithPlan are its two halves.
//
// Variable-length byte-string keys ([][]byte shards) sort through
// NewBytes/SortBytes on a prefix-code plane: an 8-byte prefix code
// drives the comparator-free kernels and bytes.Compare tie-breaks
// prefix collisions (counted in Stats.PrefixCollisions) — see NewBytes.
package hssort

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/keycoder"
	"hssort/internal/rankoracle"
)

// Config configures a sort run. The zero value plus Procs is usable:
// Histogram Sort with Sampling in its production configuration
// (§6.1.2: fixed 5·B-key oversampling per round) at ε = 0.05.
type Config struct {
	// Procs is the number of simulated processors; it must equal
	// len(shards) in Sort. Required.
	Procs int
	// Epsilon is the load-imbalance threshold ε. Default 0.05.
	Epsilon float64
	// Buckets is the number of output ranges (virtual processors).
	// Default Procs. Buckets > Procs simulates ChaNGa's TreePiece
	// regime (§6.3).
	Buckets int
	// TagDuplicates wraps every key with its (processor, index) origin
	// (§4.3), restoring the balance guarantee on duplicate-heavy
	// inputs.
	TagDuplicates bool
	// Transport selects the communication backend: TransportSim (the
	// default, fully byte-accounted), TransportInproc (the same
	// in-memory runtime unaccounted; communication-volume Stats read zero) or
	// TransportTCP (multi-process sockets with measured wire traffic;
	// see TCP below and docs/WIRE.md).
	Transport Transport
	// TCP configures the TransportTCP backend. The zero value runs an
	// in-process loopback mesh over real localhost sockets; setting
	// Coordinator joins a multi-process world in which this process
	// hosts the single rank TCP.Rank — the engine then sorts only that
	// rank's shard (shards[TCP.Rank]), peers sort theirs, and Stats are
	// populated on the rank-0 process only.
	TCP TCPConfig
	// Chaos, when non-nil, wraps the transport in a deterministic
	// seeded fault-injection layer: link delays that add latency
	// without changing output, and an optional one-shot rank crash at
	// a named phase. See ChaosConfig. Testing facility;
	// leave nil in production.
	Chaos *ChaosConfig
	// StreamExchange replaces the materializing all-to-all + merge with
	// the streaming pipeline: bucket payloads move in ChunkKeys-sized
	// chunks interleaved across destinations and the k-way merge runs
	// incrementally as chunks arrive, overlapping the exchange tail
	// (§6.2) with peak in-flight memory bounded by the flow-control
	// window, a fixed 2 chunks per destination. Output is rank-identical
	// to the materializing path. A MemoryBudget implies it: the
	// materializing path runs only without a budget.
	StreamExchange bool
	// ChunkKeys is the streaming-exchange chunk size in keys; setting it
	// implies StreamExchange. Default 64Ki when streaming (including the
	// streaming a MemoryBudget implies).
	ChunkKeys int
	// Workers is the per-rank compute worker pool size: the intra-rank
	// parallelism of the compute phases (local radix sort, partition
	// cuts, codec passes, k-way merges). 0 — the default — divides
	// GOMAXPROCS evenly among the ranks this process hosts (all Procs
	// for in-memory transports, one for a multi-process TCP rank), so
	// co-hosted ranks never oversubscribe the machine. 1 forces every
	// kernel serial. Output is rank-identical for every Workers value.
	Workers int
	// Seed makes randomized phases reproducible. Default 1.
	Seed uint64
	// Timeout aborts a wedged run (protocol-bug safety net). Default
	// 10 minutes; New rejects a negative one.
	Timeout time.Duration
	// MemoryBudget, when > 0, puts the sort out of core: each rank
	// bounds the memory the engine adds on top of the caller's data —
	// local-sort scratch, admitted streaming-exchange chunks and the
	// frames read back during the merge — to this many bytes. The
	// exchange always streams under a budget, diverting incoming
	// streams that would exceed it to compressed, checksummed run files
	// (docs/SPILL.md) that re-enter the k-way merge as additional
	// sources. The budget never bounds caller-owned arrays: the input
	// shards and the output partitions are the caller's memory, so the
	// local sort orders a shard of any size where it lies and writes
	// nothing to disk. For 8-byte numeric keys a consuming call's
	// shard, dead once encoded, is the scatter kernel's scratch, which
	// adds no engine memory; decorated (KV) and narrower keys switch to
	// a scratch-free in-place radix kernel when the shard and the
	// scatter kernel's scratch would exceed the budget. Output is
	// byte-identical to the in-memory sort; Stats.SpilledBytes reports
	// the traffic. For fixed-size key types
	// without pointers (ints, floats, plain structs of them — not
	// byte-string keys) and off the TagDuplicates path. 0 (the default)
	// keeps everything in memory.
	MemoryBudget int64
	// SpillDir is where an out-of-core sort puts its run files; each
	// rank claims the subdirectory hssort-rank-<r> under it (recreating
	// it on respawn, so a crashed predecessor's orphans are wiped). ""
	// — the default — uses per-rank directories under os.TempDir().
	// Setting SpillDir without MemoryBudget is a configuration error.
	SpillDir string
}

// Sort sorts shards[i] (the keys initially on processor i) across
// Config.Procs simulated processors and returns the per-processor sorted
// partitions: the concatenation out[0] ‖ out[1] ‖ … is the sorted
// input. The input shards are consumed, as by Sorter.Sort.
//
// Sort builds the whole simulated machine for one call and tears it
// down again. A service sorting repeatedly should create a Sorter
// (New) once instead: the engine reuses the transport, worker
// goroutines and scratch across calls, and unlocks the
// prepare-once/sort-many Plan API.
func Sort[K cmp.Ordered](cfg Config, shards [][]K) ([][]K, Stats, error) {
	if cfg.Procs == 0 {
		cfg.Procs = len(shards)
	}
	s, err := New[K](cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Close()
	return s.Sort(context.Background(), shards)
}

// SortFunc is Sort with an explicit comparator, for key types without a
// built-in order. Like Sort, it is a one-shot wrapper over a throwaway
// engine; see NewFunc for the reusable form.
func SortFunc[K any](cfg Config, shards [][]K, compare func(K, K) int) ([][]K, Stats, error) {
	if cfg.Procs == 0 {
		cfg.Procs = len(shards)
	}
	s, err := NewFunc(cfg, compare)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Close()
	return s.Sort(context.Background(), shards)
}

// SortBytes sorts variable-length byte-string keys across Config.Procs
// simulated processors and returns the per-processor sorted partitions
// in bytes.Compare order. It is a one-shot wrapper over a throwaway
// NewBytes engine; see NewBytes for the prefix code plane this runs on.
func SortBytes(cfg Config, shards [][][]byte) ([][][]byte, Stats, error) {
	if cfg.Procs == 0 {
		cfg.Procs = len(shards)
	}
	s, err := NewBytes(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Close()
	return s.Sort(context.Background(), shards)
}

// NewBytes creates a Sorter for variable-length byte-string keys,
// ordered by bytes.Compare. No bijective coder exists for unbounded
// keys, so the engine runs the prefix code plane: each key's code is
// its first 8 bytes read big-endian (keycoder.Prefix) — an
// order-preserving but non-injective decoration — and every code-keyed
// kernel (radix local sort, partition cuts, histogram scans, merges)
// is followed by a comparator tie-break exactly where distinct keys
// can collide on a code. Splitter determination runs entirely in code
// space, so splitter traffic stays fixed-size regardless of key
// length; on adversarial inputs whose keys all share an 8-byte prefix
// the protocol saturates after its stagnation window instead of
// looping, and Plan.AchievedEpsilon reports the honest (possibly
// large) imbalance the code plane could express.
//
// NewFunc(cfg, bytes.Compare) is the pure comparator plane (the
// conformance oracle); output is rank-identical either way.
// Stats.PrefixCollisions reports how often the tie-break fired.
func NewBytes(cfg Config) (*Sorter[[]byte], error) {
	return newSorter[[]byte](cfg, bytes.Compare, nil, keycoder.Prefix{}.Code, true)
}

// coderFor returns the keycoder for supported ordered key types, or nil.
func coderFor[K any]() keycoder.Coder[K] {
	var zero K
	switch any(zero).(type) {
	case int64:
		return any(keycoder.Int64{}).(keycoder.Coder[K])
	case uint64:
		return any(keycoder.Uint64{}).(keycoder.Coder[K])
	case int32:
		return any(keycoder.Int32{}).(keycoder.Coder[K])
	case uint32:
		return any(keycoder.Uint32{}).(keycoder.Coder[K])
	case float64:
		return any(keycoder.Float64{}).(keycoder.Coder[K])
	case float32:
		return any(keycoder.Float32{}).(keycoder.Coder[K])
	default:
		return nil
	}
}

// SimulateSplitters runs HSS's splitter-determination protocol centrally
// at arbitrary scale (the paper's true processor counts) without moving
// any data: the tool behind Table 6.1. See SimResult for the reported
// quantities.
func SimulateSplitters(n int64, buckets int, eps float64, seed uint64) (SimResult, error) {
	res, err := core.SimulateSplitters(n, core.Options[int64]{
		Cmp:     cmp.Compare[int64],
		Buckets: buckets,
		Epsilon: eps,
		Seed:    seed,
	})
	if err != nil {
		return SimResult{}, err
	}
	return res, nil
}

// SimResult reports a SimulateSplitters run: rounds, per-round sample
// sizes, interval coverage per round, achieved bucket imbalance, and
// whether every splitter met its window. It is core's record, re-exported;
// the field docs are at go doc hssort/internal/core.SimResult.
type SimResult = core.SimResult

// ApproxRanks answers global rank queries over sharded data with the
// §3.4 approximate rank oracle: each simulated processor summarizes its
// shard with a √(2p ln p)/ε-key representative sample, and every answer
// is within N·ε/p of the true rank w.h.p. (Theorem 3.4.1) at the cost of
// one small reduction per query batch — the paper's standalone primitive
// for repeated rank/quantile queries.
func ApproxRanks[K cmp.Ordered](shards [][]K, probes []K, eps float64, seed uint64) ([]int64, error) {
	p := len(shards)
	if p < 1 {
		return nil, fmt.Errorf("hssort: at least one shard is required")
	}
	var ranks []int64
	w := comm.NewWorld(p, comm.WithTimeout(10*time.Minute))
	err := w.Run(func(c *comm.Comm) error {
		local := make([]K, len(shards[c.Rank()]))
		copy(local, shards[c.Rank()])
		slices.SortFunc(local, cmp.Compare[K])
		oracle, err := rankoracle.New(c, local, rankoracle.Options[K]{
			Cmp: cmp.Compare[K], Epsilon: eps, Seed: seed,
		})
		if err != nil {
			return err
		}
		got, err := oracle.Query(probes)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			ranks = got
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ranks, nil
}
