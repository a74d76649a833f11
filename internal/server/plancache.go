package server

import (
	"container/list"
	"hash/fnv"
	"math/bits"
	"slices"
	"sync"
)

// planOutcome is a run's plan-cache verdict.
type planOutcome int

const (
	planNone    planOutcome = iota // the job never reached a sort (canceled while queued, decode-time failure)
	planHit                        // a cached plan seeded the sort and stood: zero histogramming rounds
	planMiss                       // no seed: fresh splitters were determined (and cached for next time)
	planRefined                    // a cached plan seeded the sort, was refined (Rounds > 0) and re-cached
)

func (o planOutcome) String() string {
	switch o {
	case planHit:
		return "hit"
	case planMiss:
		return "miss"
	case planRefined:
		return "replanned"
	default:
		return ""
	}
}

// planKey addresses one cached splitter plan: the tenant, the
// submitted dataset's distribution fingerprint, and whether the job
// carries record values (a record plan's splitters are records, so the
// two kinds of job cannot share an entry). Keying by fingerprint rather
// than dataset name means a tenant's recurring distribution hits the
// cache whatever the job is called.
type planKey struct {
	tenant string
	fp     uint64
	kv     bool
}

// planCache is a bounded LRU of finalized splitter plans, keyed by
// planKey. Values are *hssort.Plan[E] for the element
// type the owning engine sorts; they are stored untyped and asserted
// back at the point of use. Safe for concurrent use.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *planEntry
	entries map[planKey]*list.Element
}

type planEntry struct {
	key  planKey
	plan any
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[planKey]*list.Element),
	}
}

func (c *planCache) get(key planKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

func (c *planCache) put(key planKey, plan any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*planEntry).plan = plan
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&planEntry{key: key, plan: plan})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).key)
	}
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// fingerprintSampleMax bounds the per-job fingerprint sample: enough
// quantile resolution to distinguish distributions, cheap enough to run
// on every submission.
const fingerprintSampleMax = 128

// fingerprintQuantiles is the number of sample quantiles folded into
// the fingerprint.
const fingerprintQuantiles = 16

// fingerprint sketches a dataset's distribution as a 64-bit hash — the
// plan cache's notion of "the same recurring workload". The sketch
// hashes the key type, the shard count, the order of magnitude of n,
// and 16 coarsely quantized quantiles of a sorted key-code sample
// (sample is the caller's strided sample of up to fingerprintSampleMax
// order-preserving codes; it is sorted in place here). Each quantile is
// quantized to its top 16 bits, which is still fine enough that two
// fresh draws of one distribution almost never agree (README finding 5):
// in practice a hit is a byte-identical resubmission, and anything else —
// a fresh draw as much as a drifted distribution — moves a quantile
// bucket and misses. A colliding fingerprint over genuinely different
// data is safe: a cached plan only seeds the sort, which histograms it
// against the data before trusting it.
func fingerprint(keyType string, shards, n int, sample []uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(keyType))
	var b [8]byte
	put := func(v uint64) {
		b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
		b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		h.Write(b[:])
	}
	put(uint64(shards))
	put(uint64(bits.Len(uint(n)))) // magnitude bucket, not the exact count
	slices.Sort(sample)
	for q := 0; q < fingerprintQuantiles; q++ {
		if len(sample) == 0 {
			break
		}
		i := q * (len(sample) - 1) / (fingerprintQuantiles - 1)
		put(sample[i] >> 48) // top 16 bits of the quantile's code
	}
	return h.Sum64()
}

// sampleCodes collects the fingerprint's strided key-code sample: up to
// fingerprintSampleMax codes drawn evenly across the concatenated
// shards, in submission order (fingerprint sorts them).
func sampleCodes[K any](shards [][]K, code func(K) uint64) []uint64 {
	sample := make([]uint64, 0, fingerprintSampleMax)
	samplePositions(shards, func(r, i int) {
		sample = append(sample, code(shards[r][i]))
	})
	return sample
}

// samplePositions visits the fingerprint's sample positions in order:
// every stride-th key of the concatenated shards from the first, up to
// fingerprintSampleMax of them, each as (shard, index within it).
func samplePositions[K any](shards [][]K, visit func(r, i int)) {
	n := shardsLen(shards)
	stride := max(1, n/fingerprintSampleMax)
	r, base := 0, 0 // shards[r] starts at concatenated position base
	for g, count := 0, 0; g < n && count < fingerprintSampleMax; g, count = g+stride, count+1 {
		for g >= base+len(shards[r]) {
			base += len(shards[r])
			r++
		}
		visit(r, g-base)
	}
}
