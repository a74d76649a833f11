package nodesort

import (
	"fmt"
	"time"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/merge"
)

// The two-level data movement's tags, from a base of its own: core's
// layout reserves only the flat exchange's.
const (
	baseTag    comm.Tag = 7000
	tagCombine          = baseTag     // intra-node run gather
	tagNodeEx           = baseTag + 1 // node-to-node exchange
	tagScatter          = baseTag + 2 // within-node scatter
)

// Sort runs the two-level sort and returns this rank's globally sorted
// partition (rank order = global order): the skeleton's front half
// (core.FrontHalf) under the HSS strategy, retargeted at node-level
// partitioning — all p ranks participate, but only n-1 splitters are
// sought (§6.1: "data partitioning needs to be only across physical
// nodes") — then the two-level data movement. coresPerNode is the node
// width c; the world size must be a multiple of it. opt.Buckets is
// forced to the node count n = p/c, so injected Splitters are n-1
// node-level keys and their round 0 is measured over node buckets;
// opt.Epsilon defaults to 0.02, the paper's node-level threshold;
// opt.Owner and opt.ChunkKeys are unused, as the leader exchange always
// materializes. Every rank must call Sort with the same arguments. The
// input is consumed.
func Sort[K any](c *comm.Comm, local []K, opt core.Options[K], coresPerNode int) ([]K, core.Stats, error) {
	p := c.Size()
	if coresPerNode < 1 {
		return nil, core.Stats{}, fmt.Errorf("nodesort: coresPerNode %d < 1", coresPerNode)
	}
	if p%coresPerNode != 0 {
		return nil, core.Stats{}, fmt.Errorf("nodesort: world size %d not a multiple of coresPerNode %d", p, coresPerNode)
	}
	opt.Buckets = p / coresPerNode
	if opt.Epsilon == 0 {
		opt.Epsilon = 0.02
	}
	f, err := core.FrontHalf(c, local, opt, core.HSS[K]())
	if err != nil {
		return nil, core.Stats{}, err
	}
	return backHalf(c, f)
}

// backHalf is the two-level data movement behind a front half cut into
// one bucket per node (f.Opt.Buckets nodes of equal width): intra-node
// combine, node-to-node exchange, within-node scatter, then the closing
// stats all-reduce. On leaders f.Opt.Workers also serves the combine and
// node-level merges and f.Opt.Scratch the leader exchange.
func backHalf[K any](c *comm.Comm, f *core.Front[K]) ([]K, core.Stats, error) {
	nodes := f.Opt.Buckets
	cores := c.Size() / nodes
	opt, stats, pool := f.Opt, f.Stats, f.Pool
	if stats.N == 0 {
		// Nothing to move: every rank returns empty, consistently.
		stats.Imbalance = 1
		return []K{}, stats, nil
	}
	me := c.Rank()
	leaderRank := me / cores * cores
	isLeader := me == leaderRank

	// Build this node's group; node g occupies ranks [g·c, (g+1)·c).
	members := make([]int, cores)
	for i := range members {
		members[i] = leaderRank + i
	}
	group, err := collective.NewGroup(c, members)
	if err != nil {
		return nil, stats, err
	}

	// Message combining (§6.1): every core hands its n partitioned runs
	// to the node leader by reference (shared memory), so the network
	// sees nothing yet.
	bytes1 := c.Counters().BytesSent
	t2 := time.Now()
	gathered, err := collective.Gatherv(group, 0, tagCombine, f.Runs)
	if err != nil {
		return nil, stats, err
	}

	// Node-to-node exchange: leaders merge their cores' runs per
	// destination node and exchange n(n-1) combined messages.
	var nodeData []K
	var nodeMergeTime time.Duration
	if isLeader {
		// Prefix plane: the combine and node-level merges resolve
		// equal-code matches with the comparator.
		combined := make([][]K, nodes)
		for dst := 0; dst < nodes; dst++ {
			perCore := make([][]K, 0, cores)
			for _, coreRuns := range gathered {
				perCore = append(perCore, coreRuns[dst])
			}
			combined[dst] = merge.Runs([]K{}, perCore, opt.Cmp, opt.Code, opt.PrefixCode, pool, opt.Scratch.MergeScratch())
		}
		var leaders []int
		for g := 0; g < nodes; g++ {
			leaders = append(leaders, g*cores)
		}
		leaderGroup, err := collective.NewGroup(c, leaders)
		if err != nil {
			return nil, stats, err
		}
		nodeData, _, nodeMergeTime, _, err = exchange.ExchangeMerge(
			leaderGroup, tagNodeEx, combined, exchange.ContiguousOwner(nodes, nodes), opt.Cmp, opt.Code,
			exchange.StreamOptions{Pool: pool, Tie: opt.PrefixCode}, opt.Scratch)
		if err != nil {
			return nil, stats, err
		}
	}
	exchangeTime := time.Since(t2) - nodeMergeTime
	exchangeBytes := c.Counters().BytesSent - bytes1

	// Final within-node sorting (§6.1): the leader has its node's bucket
	// assembled, cuts exact per-core quantiles (the shared-memory limit
	// of regular sampling), and scatters the pieces back to its cores.
	t3 := time.Now()
	var parts [][]K
	if isLeader {
		parts = make([][]K, cores)
		for i := 0; i < cores; i++ {
			lo := i * len(nodeData) / cores
			hi := (i + 1) * len(nodeData) / cores
			parts[i] = nodeData[lo:hi]
		}
	}
	out, err := collective.Scatterv(group, 0, tagScatter, parts)
	if err != nil {
		return nil, stats, err
	}
	mergeTime := nodeMergeTime + time.Since(t3)
	stats.ExchangeBytes = exchangeBytes
	stats.Exchange += exchangeTime
	stats.Merge = mergeTime
	pc := pool.Counters()
	stats.ParSpawned, stats.ParTasks = pc.Spawned, pc.Tasks
	if err := core.FinishStats(c, core.TagStats, &stats, len(out)); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
