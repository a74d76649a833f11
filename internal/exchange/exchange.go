package exchange

import (
	"fmt"
	"slices"

	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
)

// Debug enables O(B) invariant re-validation on the partition hot paths.
// Splitter sortedness is guaranteed once at splitter-determination time
// (the pipelines sort before broadcasting), so the per-call check is a
// debug assertion only; tests flip this on.
var Debug = false

// ValidateSplitters panics if splitters are not non-decreasing under
// cmp. The sort pipelines call it (or sort outright) once when splitters
// are determined, which is what lets Partition skip the O(B) re-check on
// every invocation.
func ValidateSplitters[K any](splitters []K, cmp func(K, K) int) {
	for i := 1; i < len(splitters); i++ {
		if cmp(splitters[i-1], splitters[i]) > 0 {
			panic("exchange: splitters not sorted")
		}
	}
}

// Partition cuts a locally sorted slice into len(splitters)+1 consecutive
// runs: run i holds keys in [S_{i-1}, S_i) with S_{-1} = -inf and
// S_{B-1} = +inf, matching the paper's bucket definition (processor i owns
// [S_i, S_{i+1})). The returned runs alias the input. splitters must be
// sorted (non-decreasing) — guaranteed by the splitter-determination
// phases and re-checked only under Debug.
//
// Each cut is searched for from the previous one (codes.SearchFrom), so
// B cuts in n keys take O(B log(n/B)) comparator calls, whether buckets
// are few or, over-partitioned, outnumber the keys.
func Partition[K any](sorted []K, splitters []K, cmp func(K, K) int) [][]K {
	if Debug {
		ValidateSplitters(splitters, cmp)
	}
	cuts := make([]int, len(splitters))
	cutsFunc(sorted, splitters, cmp, cuts)
	return runsAt(sorted, cuts)
}

// cutsFunc is codes.Cuts on the comparator plane, into cuts.
func cutsFunc[K any](sorted, splitters []K, cmp func(K, K) int, cuts []int) {
	pos, step := 0, max(1, len(sorted)/max(1, len(splitters)))
	for i, s := range splitters {
		pos = codes.SearchFrom(len(sorted), pos, step, func(j int) bool { return cmp(sorted[j], s) >= 0 })
		cuts[i] = pos
	}
}

// PartitionByCode is Partition on the code plane: the cut positions are
// computed on the parallel sorted code array cs by codes.Cuts and the
// element slice is cut at those positions. splitterCodes must be the
// non-decreasing codes of the splitter keys under the same
// order-preserving extractor that produced cs.
func PartitionByCode[K any](sorted []K, cs []codes.Code, splitterCodes []codes.Code) [][]K {
	if len(sorted) != len(cs) {
		panic("exchange: code array length mismatch")
	}
	if Debug {
		ValidateSplitters(splitterCodes, codes.Compare)
	}
	return runsAt(sorted, codes.Cuts(cs, splitterCodes))
}

// ContiguousOwner maps buckets to ranks in contiguous blocks: bucket b
// goes to rank floor(b·p/B). For B >= p every rank owns a block of
// [B/p, B/p+1] buckets; for B < p the buckets spread over distinct ranks
// starting at rank 0. Either way the global sort order follows rank
// order.
func ContiguousOwner(buckets, ranks int) func(int) int {
	return func(b int) int {
		return b * ranks / buckets
	}
}

// RoundRobinOwner maps bucket b to rank b mod p: the non-contiguous
// virtual-processor placement of §6.3, where consecutive buckets land on
// arbitrary (here: cyclic) ranks.
func RoundRobinOwner(ranks int) func(int) int {
	return func(b int) int { return b % ranks }
}

// Wire-accounting constants shared by both exchange paths. The §5.1 BSP
// model charges every message a latency term independent of its size, so
// even an empty message must carry accounted overhead — otherwise
// SimTransport stats under-count the α·(p-1) term of the all-to-all.
const (
	// MsgHeaderBytes is the accounted envelope of every exchange
	// message, including empty ones.
	MsgHeaderBytes = 8
	// RunHeaderBytes is the accounted per-run (bucket, sender) framing
	// inside a materialized exchange message.
	RunHeaderBytes = 8
)

// bucketRun is the wire unit of the exchange: one bucket's keys from one
// sender.
type bucketRun[K any] struct {
	bucket int32
	sender int32
	keys   []K
}

// Exchange routes runs[b] (this rank's keys for bucket b) to owner(b) for
// every bucket, combining all runs for one destination rank into a single
// message. It returns the sorted runs this rank received — one per
// (bucket, sender) pair with data, ordered by bucket then sender — ready
// for a k-way merge. Every rank must pass the same number of buckets and
// the same owner mapping.
//
// At large p every piece here is tiny (a handful of keys per
// destination), so the bookkeeping is sized once and indexed directly:
// the outgoing runs are counted, then carved per destination out of one
// allocation, and each received run is written straight to its (bucket,
// sender) slot — no per-destination append growth and no sort of the
// received set.
func Exchange[K any](e comm.Endpoint, tag comm.Tag, runs [][]K, owner func(int) int) ([][]K, error) {
	comm.RegisterWire[[]bucketRun[K]]() // wire transports decode by registered type
	p := e.Size()
	me := e.Rank()
	// Counting pass: ends[d] becomes the end offset of destination d's
	// non-empty runs in one shared array; mine lists the buckets this
	// rank owns, ascending.
	ends := make([]int, p)
	var mine []int32
	for b, run := range runs {
		dst := owner(b)
		if dst < 0 || dst >= p {
			return nil, fmt.Errorf("exchange: owner(%d) = %d outside world size %d", b, dst, p)
		}
		if dst == me {
			mine = append(mine, int32(b))
		}
		if len(run) > 0 {
			ends[dst]++
		}
	}
	total := 0
	for d, n := range ends {
		ends[d], total = total, total+n // start offsets, advanced to ends by the fill
	}
	outgoing := make([]bucketRun[K], total)
	for b, run := range runs {
		if len(run) > 0 {
			dst := owner(b)
			outgoing[ends[dst]] = bucketRun[K]{bucket: int32(b), sender: int32(me), keys: run}
			ends[dst]++
		}
	}
	byDst := func(d int) []bucketRun[K] {
		start := 0
		if d > 0 {
			start = ends[d-1]
		}
		if start == ends[d] {
			return nil // boxes into the message payload without allocating
		}
		return outgoing[start:ends[d]:ends[d]]
	}
	// Staggered sends, as in collective.AllToAllv. Every rank sends to
	// every other rank even when it has nothing for it, so receivers
	// need no separate count protocol.
	for i := 1; i < p; i++ {
		dst := (me + i) % p
		part := byDst(dst)
		bytes := int64(MsgHeaderBytes)
		for _, br := range part {
			bytes += RunHeaderBytes + comm.SliceBytes(br.keys)
		}
		if err := e.Send(dst, tag, part, bytes); err != nil {
			return nil, fmt.Errorf("exchange: send: %w", err)
		}
	}
	// Deterministic run order: bucket-major, sender-minor, so duplicate
	// keys keep a stable cross-rank order after the k-way merge. Slot
	// (i, s) holds the run of this rank's i-th bucket from sender s.
	slots := make([][]K, len(mine)*p)
	place := func(src int, part []bucketRun[K]) error {
		for _, br := range part {
			i, ok := slices.BinarySearch(mine, br.bucket)
			if !ok {
				return fmt.Errorf("exchange: rank %d sent bucket %d, which rank %d does not own", src, br.bucket, me)
			}
			slots[i*p+src] = br.keys
		}
		return nil
	}
	if err := place(me, byDst(me)); err != nil {
		return nil, err
	}
	for i := 1; i < p; i++ {
		src := (me - i + p) % p
		m, err := e.Recv(src, tag)
		if err != nil {
			return nil, fmt.Errorf("exchange: recv: %w", err)
		}
		part, ok := m.Payload.([]bucketRun[K])
		if !ok {
			return nil, fmt.Errorf("exchange: payload type %T", m.Payload)
		}
		if err := place(src, part); err != nil {
			return nil, err
		}
	}
	out := slots[:0]
	for _, run := range slots {
		if len(run) > 0 {
			out = append(out, run)
		}
	}
	return out, nil
}

// RunsImbalance measures the load balance a partition would achieve
// before any data moves: it all-reduces the global per-bucket loads of
// runs (every rank's slice lengths, bucket by bucket) and returns the
// observed bucket-level imbalance max·B/N — directly comparable to the
// paper's (1+ε) target — along with the loads themselves. Every rank
// receives the same answer; empty input reports 1. It is round 0 of a
// seeded sort (hssort.Sorter.SortSeeded): one B-length reduction
// histograms the seed splitters against the data, deciding whether they
// still fit it and, when they do not, where the strategy resumes.
func RunsImbalance[K any](e comm.Endpoint, tag comm.Tag, runs [][]K) (imb float64, loads []int64, err error) {
	loads = make([]int64, len(runs))
	for b, run := range runs {
		loads[b] = int64(len(run))
	}
	loads, err = collective.AllReduce(e, tag, loads, collective.SumInt64)
	if err != nil {
		return 0, nil, err
	}
	var total int64
	for _, l := range loads {
		total += l
	}
	if total == 0 {
		return 1, loads, nil
	}
	return float64(slices.Max(loads)) * float64(len(runs)) / float64(total), loads, nil
}
