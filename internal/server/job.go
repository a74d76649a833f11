package server

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"hssort"
	"hssort/internal/keycoder"
)

// jobStatus is a job's lifecycle state as reported over HTTP.
type jobStatus string

const (
	statusQueued   jobStatus = "queued"
	statusRunning  jobStatus = "running"
	statusDone     jobStatus = "done"
	statusFailed   jobStatus = "failed"
	statusCanceled jobStatus = "canceled"
)

// job is one submitted sort riding through the scheduler. The identity
// fields are immutable after submission; the outcome fields are guarded
// by mu and final once done is closed. data is the worker's alone: it
// holds the input shards until the job finishes and is dropped then, so
// the finished jobs kept for GET retain outputs only.
type job struct {
	id      string
	tenant  string
	dataset string
	keyType string
	n       int
	data    payload
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu        sync.Mutex
	status    jobStatus
	err       error
	result    jobResult
	stats     hssort.Stats
	outcome   planOutcome
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// jobResult is a finished job's sorted output: the typed per-shard
// partition slices, plus the record payloads reordered in tandem for
// record jobs. writeTo streams it as the job document's result member.
type jobResult interface {
	writeTo(c *chunkWriter)
}

// storedDataset is the rank-query view of a dataset's last sorted
// output: rank parses a raw query key per the dataset's key type and
// returns the number of sorted keys strictly below it.
type storedDataset struct {
	keyType string
	n       int64
	rank    func(raw string) (int64, error)
}

// rankIn returns how many keys of the globally sorted shards sit below
// the first key that atOrAbove accepts (atOrAbove is monotone over the
// sorted order). It finds the shard by its last key, then searches
// inside it; empty shards hold nothing to compare and are stepped over.
func rankIn[K any](shards [][]K, atOrAbove func(K) bool) int64 {
	var below int64
	for _, sh := range shards {
		if n := len(sh); n > 0 && atOrAbove(sh[n-1]) {
			return below + int64(sort.Search(n, func(i int) bool { return atOrAbove(sh[i]) }))
		}
		below += int64(len(sh))
	}
	return below
}

// payload is one decoded job body: the typed keys (and optional record
// payloads) plus the typed run logic. Decoding picks the concrete type;
// the scheduler's workers only see this interface.
type payload interface {
	keyType() string
	n() int
	// attach pairs one record payload with each key, turning the job
	// into a record job.
	attach(values []string) error
	// run sorts the payload on srv's engine pool, consulting and
	// updating the plan cache under the tenant's key, and returns the
	// sorted result plus the rank-query view of it.
	run(ctx context.Context, srv *Server, tenant string) (jobResult, *storedDataset, hssort.Stats, planOutcome, error)
}

// shardSlice splits a flat slice into n contiguous shards (the engine's
// per-rank inputs). Trailing shards may be empty for short inputs.
func shardSlice[E any](flat []E, n int) [][]E {
	shards := make([][]E, n)
	per := (len(flat) + n - 1) / n
	for r := range shards {
		lo := min(r*per, len(flat))
		hi := min(lo+per, len(flat))
		shards[r] = flat[lo:hi]
	}
	return shards
}

func shardsLen[E any](shards [][]E) int {
	var n int
	for _, sh := range shards {
		n += len(sh)
	}
	return n
}

// orderedType is what the daemon knows about one numeric key type.
type orderedType[K cmp.Ordered] struct {
	name string
	// scan reads one key array element at b[i:] and returns the offset
	// just past it.
	scan func(b []byte, i int) (K, int, error)
	// appendJSON appends the key as encoding/json would marshal it.
	appendJSON func(dst []byte, k K) []byte
	// parse reads a rank-query key.
	parse func(raw string) (K, error)
	// code is the order-preserving code the fingerprint samples.
	code func(K) uint64
}

var (
	int64Keys = &orderedType[int64]{
		name:       "int64",
		scan:       scanInt64,
		appendJSON: appendInt,
		parse:      func(raw string) (int64, error) { return strconv.ParseInt(raw, 10, 64) },
		code:       keycoder.Int64{}.Encode,
	}
	uint64Keys = &orderedType[uint64]{
		name:       "uint64",
		scan:       scanUint64,
		appendJSON: appendUint,
		parse:      func(raw string) (uint64, error) { return strconv.ParseUint(raw, 10, 64) },
		code:       keycoder.Uint64{}.Encode,
	}
	float64Keys = &orderedType[float64]{
		name:       "float64",
		scan:       scanFloat64,
		appendJSON: appendJSONFloat,
		parse:      func(raw string) (float64, error) { return strconv.ParseFloat(raw, 64) },
		code:       keycoder.Float64{}.Encode,
	}
)

// orderedPayload is the numeric-key payload (int64, uint64, float64),
// optionally carrying record values.
type orderedPayload[K cmp.Ordered] struct {
	t      *orderedType[K]
	shards [][]K
	values [][]string // non-nil → record job, aligned with shards
}

func (d *orderedPayload[K]) keyType() string { return d.t.name }

func (d *orderedPayload[K]) n() int { return shardsLen(d.shards) }

func (d *orderedPayload[K]) attach(values []string) error {
	if n := d.n(); len(values) != n {
		return fmt.Errorf("%d values for %d keys (they pair one-to-one)", len(values), n)
	}
	d.values = shardSlice(values, len(d.shards))
	return nil
}

// result wraps sorted key (and value) shards as the job's result and
// its rank-query view. It hangs off the key type, not the payload: what
// a finished job retains must not reach its inputs.
func (t *orderedType[K]) result(keys [][]K, values [][]string) (jobResult, *storedDataset) {
	sd := &storedDataset{keyType: t.name, n: int64(shardsLen(keys)), rank: func(raw string) (int64, error) {
		k, err := t.parse(raw)
		if err != nil {
			return 0, fmt.Errorf("key %q: %v", raw, err)
		}
		return rankIn(keys, func(x K) bool { return x >= k }), nil
	}}
	return &shardsResult[K]{shards: keys, values: values, appendKey: t.appendJSON}, sd
}

func (d *orderedPayload[K]) run(ctx context.Context, srv *Server, tenant string) (jobResult, *storedDataset, hssort.Stats, planOutcome, error) {
	fp := srv.fingerprint(d.t.name, len(d.shards), d.n(), sampleCodes(d.shards, d.t.code))
	pk := planKey{tenant: tenant, fp: fp, kv: d.values != nil}
	if pk.kv {
		return d.runKV(ctx, srv, pk)
	}
	outs, stats, outcome, err := sortOn(ctx, srv, engineKey{keyType: d.t.name}, hssort.New[K], pk, d.shards)
	if err != nil {
		return nil, nil, stats, outcome, err
	}
	res, sd := d.t.result(outs, nil)
	return res, sd, stats, outcome, nil
}

// runKV is the record-job path: zip keys and values into KV records,
// sort on the record engine, unzip for the response.
func (d *orderedPayload[K]) runKV(ctx context.Context, srv *Server, pk planKey) (jobResult, *storedDataset, hssort.Stats, planOutcome, error) {
	recs := make([][]hssort.KV[K, string], len(d.shards))
	for r, sh := range d.shards {
		recs[r] = make([]hssort.KV[K, string], len(sh))
		for i, k := range sh {
			recs[r][i] = hssort.KV[K, string]{Key: k, Val: d.values[r][i]}
		}
	}
	outs, stats, outcome, err := sortOn(ctx, srv, engineKey{keyType: d.t.name, kv: true}, hssort.NewKV[K, string], pk, recs)
	if err != nil {
		return nil, nil, stats, outcome, err
	}
	keyShards := make([][]K, len(outs))
	valShards := make([][]string, len(outs))
	for r, o := range outs {
		keyShards[r] = make([]K, len(o))
		valShards[r] = make([]string, len(o))
		for i, kv := range o {
			keyShards[r][i] = kv.Key
			valShards[r][i] = kv.Val
		}
	}
	res, sd := d.t.result(keyShards, valShards)
	return res, sd, stats, outcome, nil
}

// bytesPayload is the variable-length byte-string payload, sorted on
// the prefix-code plane (hssort.NewBytes).
type bytesPayload struct {
	shards [][][]byte
}

func (d *bytesPayload) keyType() string { return "bytes" }

func (d *bytesPayload) n() int { return shardsLen(d.shards) }

func (d *bytesPayload) attach([]string) error {
	return errors.New("values require an ordered key type (valid values: float64, int64, uint64)")
}

func (d *bytesPayload) run(ctx context.Context, srv *Server, tenant string) (jobResult, *storedDataset, hssort.Stats, planOutcome, error) {
	code := keycoder.Prefix{}.Code
	fp := srv.fingerprint("bytes", len(d.shards), d.n(), sampleCodes(d.shards, code))
	pk := planKey{tenant: tenant, fp: fp}
	outs, stats, outcome, err := sortOn(ctx, srv, engineKey{keyType: "bytes"}, hssort.NewBytes, pk, d.shards)
	if err != nil {
		return nil, nil, stats, outcome, err
	}
	sd := &storedDataset{keyType: "bytes", n: int64(shardsLen(outs)), rank: func(raw string) (int64, error) {
		k := []byte(raw)
		return rankIn(outs, func(x []byte) bool { return bytes.Compare(x, k) >= 0 }), nil
	}}
	return &shardsResult[[]byte]{shards: outs, appendKey: appendJSONBytes}, sd, stats, outcome, nil
}

// sortOn is every job's sort: one call on a warm engine of shape key,
// which newEngine builds when the pool has none parked, seeded with the
// cached plan for pk when there is one. A seed that still fits the data
// is a hit — zero histogramming rounds. One that does not (a
// fingerprint collision handed drifted data another distribution's
// plan) is refined by the sort itself ("replanned"), and the plan the
// sort ended with replaces it, so the next job of the drifted
// distribution hits. A miss is a plain sort whose splitters are kept.
// Only finalized plans are cached: splitters the protocol could not
// settle (byte keys sharing one prefix code) seed nothing.
func sortOn[E any](ctx context.Context, srv *Server, key engineKey, newEngine func(hssort.Config) (*hssort.Sorter[E], error), pk planKey, shards [][]E) ([][]E, hssort.Stats, planOutcome, error) {
	pe, err := srv.engines.acquire(key, func() (*pooledEngine, error) {
		s, err := newEngine(srv.engineConfig())
		if err != nil {
			return nil, err
		}
		return &pooledEngine{impl: s, close: s.Close}, nil
	})
	if err != nil {
		return nil, hssort.Stats{}, planNone, err
	}
	defer srv.engines.release(key, pe)
	cached, _ := srv.plans.get(pk)
	seed, _ := cached.(*hssort.Plan[E])
	outs, next, stats, err := pe.impl.(*hssort.Sorter[E]).SortSeeded(ctx, seed, shards)
	outcome := planMiss
	switch {
	case seed != nil && stats.Rounds == 0:
		outcome = planHit
	case seed != nil:
		outcome = planRefined
	}
	if err == nil && outcome != planHit && next != nil && next.Finalized {
		srv.plans.put(pk, next)
	}
	return outs, stats, outcome, err
}
