package hssort

// The root package's differential harness. A cell is a Config plus an
// input; run sorts it and holds the result to exactly two oracles: the
// output contract of §2, from slices.Sort of the input, and reference(c),
// the same protocol on the simplest path. run also checks, once, the
// Stats invariants each dimension promises. The equivalence tests at
// the bottom are filters over this one space: each picks values of some
// dimensions and names them, and a cell's name is its subtest ID.
//
// Adding a dimension: one cell field (or a Config field), one setter in
// the dimension block, one filter that picks its values.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"hssort/internal/codes"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/histsort"
	"hssort/internal/keycoder"
	"hssort/internal/samplesort"
)

// cell is one point of the space.
type cell struct {
	name     string // subtest path, one component per picked value
	cfg      Config // Procs is the input's p
	key      string // int64 (""), uint64, int32, float32, float64, kv (KV[int64, int32]), kv-float64 or bytes
	in       input
	seeded   bool // also seed a sort with the cell's own plan
	repeat   bool // sort twice through one engine; the outputs must be identical
	balanced bool // Imbalance must be at most 1+ε
	// oracle also holds the cell to the materializing exchange under a
	// shared plan (materializingOracle); run sets it where streamsFlat.
	oracle bool

	// comparator builds the engine with NewFunc and the key type's
	// order: the comparator plane. Histogram sort needs key arithmetic,
	// which NewFunc lacks, so it keeps the key type's constructor.
	comparator bool
	// baseline names the §4.2 splitter strategy the engine runs instead
	// of HSS: "histogramsort", "samplesort-regular" or "samplesort-random"
	// (see withBaseline); "" is HSS.
	baseline string
}

// input is p shards of n keys drawn from dist at seed.
type input struct {
	dist string
	p, n int
	seed uint64
}

const (
	// bigN keys per rank put every parallel kernel above its serial
	// cutoff, parCutoff, and a quarter of a rank's int64 data is a
	// budget that spills.
	bigN      = 20000
	parCutoff = 1 << 14
	// nanBits draws as a NaN in both float views of a key.
	nanBits = 0x7ff80000_7fc00000
)

// nanPayloads draw as NaNs of both signs, quiet and signaling, with
// several payloads, in both float views of a key; then as -0 in the
// float64 view, -0 in the float32 view, and +0 in both.
var nanPayloads = []uint64{
	nanBits, 0xfff80000_ffc00000, 0x7ff00000_7f800001, 0xfff12345_ff812345,
	0x7fffffff_7fffffff, 0xffffffff_ffffffff,
	0x80000000_00000000, 0x00000000_80000000, 0,
}

// ---- Dimensions ----

// variants are the algorithm dimension: the configurations the matrices
// sweep, each with the distribution it draws unless the cell names one —
// HSS, and the §4.2 baselines, which run the whole engine with their
// splitter strategy in place of HSS's.
// Buckets counts buckets per rank; Epsilon defaults to 0.1.
var variants = map[string]struct {
	cfg      Config
	dist     string
	baseline bool
}{
	"hss":                {Config{Epsilon: 0.05}, "powerskew", false},
	"hss-overpartition":  {Config{Buckets: 4}, "uniform", false},
	"hss-duplicates":     {Config{TagDuplicates: true}, "dupheavy", false},
	"histogramsort":      {Config{}, "exponential", true},
	"samplesort-regular": {Config{}, "uniform", true},
	"samplesort-random":  {Config{}, "dupheavy", true},
}

// algNames are the variants that name an algorithm rather than an HSS
// configuration: HSS and the three baselines.
var algNames = []string{"hss", "samplesort-regular", "samplesort-random", "histogramsort"}

// The setters, one per dimension.
func algorithm(c *cell, name string) {
	v, ok := variants[name]
	if !ok {
		panic("no algorithm variant " + name)
	}
	c.baseline, c.cfg.TagDuplicates = "", v.cfg.TagDuplicates
	if v.baseline {
		c.baseline = name
	}
	c.cfg.Buckets, c.cfg.Epsilon = v.cfg.Buckets*c.in.p, cmp.Or(v.cfg.Epsilon, 0.1)
	c.in.dist = cmp.Or(c.in.dist, v.dist)
}

func keyType(c *cell, k string)       { c.key = k }
func distribution(c *cell, d string)  { c.in.dist = d }
func protocolSeed(c *cell, s uint64)  { c.cfg.Seed = s }
func transport(c *cell, tr Transport) { c.cfg.Transport = tr }
func workers(c *cell, w int)          { c.cfg.Workers = w }
func budget(c *cell, b int64)         { c.cfg.MemoryBudget = b }
func seededSort(c *cell, seeded bool) { c.seeded = seeded }
func streaming(c *cell, streamed bool) {
	// 1024-key chunks: several per stream at bigN, and a credit window
	// larger than a quarter-shard budget, so budgeted streams divert.
	c.cfg.StreamExchange, c.cfg.ChunkKeys = streamed, 0
	if streamed {
		c.cfg.ChunkKeys = 1024
	}
}

// streams is ExchangeMerge's rule seen from a Config: the materializing
// exchange runs only with streaming off and no memory budget.
func streams(cfg Config) bool {
	return cfg.StreamExchange || cfg.ChunkKeys > 0 || cfg.MemoryBudget > 0
}

// streamsFlat reports whether the cell streams, and so sorts flat, where
// its materializing form sorts in two levels (core.Levels). The two cut
// at different splitters, so their ranks agree only under a shared plan.
func streamsFlat(c cell) bool {
	m := c.cfg
	m.StreamExchange, m.ChunkKeys, m.MemoryBudget = false, 0, 0
	_, _, two := core.Levels(c.in.p, int64(c.in.p*c.in.n), coreOptions(m, cmp.Compare[int64], nil, false))
	return two && streams(c.cfg)
}

// withBaseline makes eng run the §4.2 baseline name (none if "") in place
// of HSS, on every plane: sample sort and classic histogram sort as the
// engine ran them when Config selected them. Histogram sort bisects code
// space on the code and prefix planes, and has no strategy over keys
// themselves: it needs a coder the comparator and record planes lack.
func withBaseline[K any](eng *Sorter[K], name string) {
	if name != "" {
		eng.strategies = []any{baseline[K](name), baseline[codes.Code](name), baseline[tagged[K]](name)}
	}
}

func baseline[E any](name string) core.Strategies[E] {
	switch name {
	case "samplesort-regular", "samplesort-random":
		o := samplesort.Options{Method: samplesort.Regular}
		if name == "samplesort-random" {
			o.Method = samplesort.Random
		}
		return core.Strategies[E]{Keys: sampleSort[E](o), Codes: sampleSort[codes.Code](o)}
	case "histogramsort":
		probe := func(c comm.Endpoint, sorted []codes.Code, n int64, opt core.Options[codes.Code]) ([]codes.Code, core.SplitterInfo, error) {
			return histsort.DetermineSplitters(c, sorted, n, opt, histsort.Options[codes.Code]{Coder: identityCoder{}})
		}
		keys, ok := any(core.Strategy[codes.Code](probe)).(core.Strategy[E])
		if !ok {
			keys = func(comm.Endpoint, []E, int64, core.Options[E]) ([]E, core.SplitterInfo, error) {
				var zero E
				return nil, core.SplitterInfo{}, fmt.Errorf("histogram sort needs a key coder, which %T lacks", zero)
			}
		}
		return core.Strategies[E]{Keys: keys, Codes: probe}
	}
	panic("no baseline " + name)
}

func sampleSort[E any](o samplesort.Options) core.Strategy[E] {
	return func(c comm.Endpoint, sorted []E, n int64, opt core.Options[E]) ([]E, core.SplitterInfo, error) {
		return samplesort.DetermineSplitters(c, sorted, n, opt, o)
	}
}

// identityCoder is the coder of code points themselves, under which
// histogram sort's probe arithmetic runs on the codes.
type identityCoder struct{}

func (identityCoder) Encode(c codes.Code) uint64 { return uint64(c) }
func (identityCoder) Decode(u uint64) codes.Code { return codes.Code(u) }

func (identityCoder) EncodeAll(dst []uint64, cs []codes.Code) {
	for i, c := range cs {
		dst[i] = uint64(c)
	}
}

func (identityCoder) DecodeAll(dst []codes.Code, us []uint64) {
	for i, u := range us {
		dst[i] = codes.Code(u)
	}
}

// val is one value of one dimension: the name it adds to a cell's path
// and what it sets.
type val struct {
	name string
	set  func(*cell)
}

// dim names each of vs by format.
func dim[T any](format string, set func(*cell, T), vs ...T) []val {
	out := make([]val, len(vs))
	for i, v := range vs {
		out[i] = val{fmt.Sprintf(format, v), func(c *cell) { set(c, v) }}
	}
	return out
}

// pick is dim for named values, each "value" or "label=value".
func pick(set func(*cell, string), names ...string) []val {
	out := make([]val, len(names))
	for i, n := range names {
		label, v, ok := strings.Cut(n, "=")
		if !ok {
			v = label
		}
		out[i] = val{label, func(c *cell) { set(c, v) }}
	}
	return out
}

// exchanges is the exchange-form dimension, its two values named mat and str.
func exchanges(mat, str string) []val {
	return []val{{mat, func(c *cell) { streaming(c, false) }}, {str, func(c *cell) { streaming(c, true) }}}
}

// planes is the constructor dimension: the comparator plane (NewFunc),
// named off, and the key type's own constructor, named coded.
func planes(off, coded string) []val {
	return []val{{off, func(c *cell) { c.comparator = true }}, {coded, func(c *cell) { c.comparator = false }}}
}

// product crosses base with one value of each dimension, in order.
func product(base cell, dims ...[]val) []cell {
	cs := []cell{base}
	for _, d := range dims {
		next := make([]cell, 0, len(cs)*len(d))
		for _, c := range cs {
			for _, v := range d {
				nc := c
				v.set(&nc)
				nc.name = strings.TrimPrefix(c.name+"/"+v.name, "/")
				next = append(next, nc)
			}
		}
		cs = next
	}
	return cs
}

// pairwise picks cells of cs until every pair of values of two
// dimensions that some cell holds is held by a picked one: greedily, the
// cell covering most uncovered pairs first. Every value needs a
// non-empty name.
func pairwise(cs []cell) []cell {
	pairs := make([][]string, len(cs))
	need := map[string]bool{}
	for i, c := range cs {
		vs := strings.Split(c.name, "/")
		for a := range vs {
			for b := a + 1; b < len(vs); b++ {
				p := fmt.Sprintf("%d=%s,%d=%s", a, vs[a], b, vs[b])
				pairs[i] = append(pairs[i], p)
				need[p] = true
			}
		}
	}
	var picked []int
	for len(need) > 0 {
		best, gain := 0, 0
		for i := range cs {
			g := 0
			for _, p := range pairs[i] {
				if need[p] {
					g++
				}
			}
			if g > gain {
				best, gain = i, g
			}
		}
		for _, p := range pairs[best] {
			delete(need, p)
		}
		picked = append(picked, best)
	}
	slices.Sort(picked) // in product order, so cells sharing a prefix share its subtest
	out := make([]cell, len(picked))
	for i, j := range picked {
		out[i] = cs[j]
	}
	return out
}

// runAll runs cells as nested subtests, one level per name component, so
// a cell named a/b has the ID of t.Run("a") holding t.Run("b"), and
// cells sharing a prefix share its subtest. A cell named like the one
// before it gets the next #01-style ID.
func runAll(t *testing.T, cs []cell) {
	t.Helper()
	for len(cs) > 0 {
		head, _, _ := strings.Cut(cs[0].name, "/")
		if head == "" {
			run(t, cs[0])
			cs = cs[1:]
			continue
		}
		n := 1
		for n < len(cs) && strings.HasPrefix(cs[n].name, head+"/") {
			n++
		}
		group := slices.Clone(cs[:n])
		for i := range group {
			group[i].name = strings.TrimPrefix(group[i].name[len(head):], "/")
		}
		cs = cs[n:]
		t.Run(head, func(t *testing.T) { runAll(t, group) })
	}
}

// ---- Inputs ----

var (
	memoMu   sync.Mutex
	draws    = map[input][][]int64{}
	contract = map[string]digest{} // key type and input -> the sorted input's digest
	refs     = map[string]outcome{}
)

// memoized returns m[k], computing it on a miss. Each value is computed
// once per test binary, shared by every test that needs it.
func memoized[K comparable, V any](m map[K]V, k K, f func() V) V {
	memoMu.Lock()
	v, ok := m[k]
	memoMu.Unlock()
	if !ok {
		v = f()
		memoMu.Lock()
		m[k] = v
		memoMu.Unlock()
	}
	return v
}

// draw returns the input's keys as int64s, which each key type converts.
// The dist.Kind names draw from [0, 2⁴⁰) with 64 distinct values for
// dupheavy; all-equal, 2-valued and 3-valued are dupheavy with that many.
// full draws bit patterns whose float64 and float32 views are finite
// (their exponents' top bits cleared) while the integer views still span
// both signs; full+nan puts one NaN first on rank 0, and full+nan-payloads
// makes every fifth key one of nanPayloads.
func draw(in input) [][]int64 {
	return memoized(draws, in, func() [][]int64 {
		if strings.HasPrefix(in.dist, "full") {
			out := make([][]int64, in.p)
			for r := range out {
				rng := rand.New(rand.NewPCG(in.seed, uint64(r)))
				out[r] = make([]int64, in.n)
				for i := range out[r] {
					out[r][i] = int64(rng.Uint64() &^ (1<<62 | 1<<30))
				}
			}
			switch in.dist {
			case "full+nan":
				out[0][0] = nanBits
			case "full+nan-payloads":
				for r := range out {
					for i := r; i < in.n; i += 5 {
						out[r][i] = int64(nanPayloads[(i/5+r)%len(nanPayloads)])
					}
				}
			}
			return out
		}
		spec := dist.Spec{Kind: dist.DuplicateHeavy, Max: 1 << 40, Distinct: 64}
		switch in.dist {
		case "all-equal":
			spec.Distinct = 1
		case "2-valued":
			spec.Distinct = 2
		case "3-valued":
			spec.Distinct = 3
		default:
			for spec.Kind = dist.Uniform; spec.Kind.String() != in.dist; spec.Kind++ {
				if spec.Kind > dist.Staircase {
					panic("no distribution " + in.dist)
				}
			}
		}
		return spec.Shards(in.n, in.p, in.seed)
	})
}

// byteShards draws the byte-string distributions: the dist.ByteKind
// names, and dupheavy — keys from a small pool, some sharing their
// 8-byte prefix code, some one another's prefix. nil for the rest.
func byteShards(in input) [][][]byte {
	for k := dist.HashLike; k <= dist.LogLines; k++ {
		if k.String() == in.dist {
			return dist.ByteSpec{Kind: k}.Shards(in.n, in.p, in.seed)
		}
	}
	if in.dist != "dupheavy" {
		return nil
	}
	pool := [][]byte{
		[]byte("aardvark"), []byte("aardwolf"), // codes differ inside the prefix
		[]byte("prefix:alpha"), []byte("prefix:beta"), []byte("prefix:beta"), // one code
		[]byte(""), []byte("z"), // zero-padded codes
		[]byte("prefix:alpha\x00"),               // tie-broken past the prefix
		[]byte("mmmmmmmmmm"), []byte("mmmmmmmm"), // one key the other's prefix
	}
	out := make([][][]byte, in.p)
	for r := range out {
		out[r] = make([][]byte, in.n)
		for i := range out[r] {
			out[r][i] = pool[(r*7919+i*104729)%len(pool)]
		}
	}
	return out
}

// keyOps is what the harness needs of a key type.
type keyOps[K any] struct {
	new   func(Config) (*Sorter[K], error)
	from  func(k int64, id int) K    // a drawn key; id numbers it across the input
	order func(K, K) int             // the sort order
	sort  func([]K)                  // a total order: by key, then bits or payload
	hash  func(h uint64, k K) uint64 // one step of an ordered hash
	// rank is the hash rank identity compares. Records hash their key
	// alone: equal-key records may trade places, across the ranks of one
	// node-sort node too.
	rank func(h uint64, k K) uint64
}

// numeric is keyOps for an ordered key type, bits its bit pattern. Keys
// cmp.Compare ties — ±0, NaNs — sort by bits.
func numeric[K cmp.Ordered](from func(int64) K, bits func(K) uint64) keyOps[K] {
	hash := func(h uint64, k K) uint64 { return mix(h ^ bits(k)) }
	sort := func(s []K) {
		slices.SortFunc(s, func(a, b K) int { return cmp.Or(cmp.Compare(a, b), cmp.Compare(bits(a), bits(b))) })
	}
	return keyOps[K]{New[K], func(k int64, _ int) K { return from(k) }, cmp.Compare[K], sort, hash, hash}
}

// records is keyOps for KV[K, int32] records, each numbered by its
// payload.
func records[K cmp.Ordered](from func(int64) K, bits func(K) uint64) keyOps[KV[K, int32]] {
	return keyOps[KV[K, int32]]{
		new:   NewKV[K, int32],
		from:  func(k int64, id int) KV[K, int32] { return KV[K, int32]{Key: from(k), Val: int32(id)} },
		order: CompareKV[K, int32],
		sort: func(s []KV[K, int32]) {
			slices.SortFunc(s, func(a, b KV[K, int32]) int { return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val)) })
		},
		hash: func(h uint64, kv KV[K, int32]) uint64 { return mix(mix(h^bits(kv.Key)) ^ uint64(kv.Val)) },
		rank: func(h uint64, kv KV[K, int32]) uint64 { return mix(h ^ bits(kv.Key)) },
	}
}

func int64Key(k int64) int64       { return k }
func int64Bits(k int64) uint64     { return uint64(k) }
func float64Key(k int64) float64   { return math.Float64frombits(uint64(k)) }
func float32Key(k int64) float32   { return math.Float32frombits(uint32(k)) }
func float32Bits(k float32) uint64 { return uint64(math.Float32bits(k)) }

func hashBytes(h uint64, k []byte) uint64 {
	for _, b := range k {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return mix(h ^ uint64(len(k)))
}

var bytesOps = keyOps[[]byte]{
	new: NewBytes,
	// A drawn key's 8 big-endian bytes are its prefix code, so distinct
	// keys never collide; the tail puts every key past the code.
	from: func(k int64, _ int) []byte {
		return append(binary.BigEndian.AppendUint64(make([]byte, 0, 13), uint64(k)), "/tail"...)
	},
	order: bytes.Compare,
	sort:  func(s [][]byte) { slices.SortFunc(s, bytes.Compare) },
	hash:  hashBytes,
	rank:  hashBytes,
}

// shardsOf materializes the cell's input as K.
func shardsOf[K any](c cell, ops keyOps[K]) [][]K {
	if c.key == "bytes" {
		if bs := byteShards(c.in); bs != nil {
			return any(bs).([][]K)
		}
	}
	base := draw(c.in)
	out := make([][]K, len(base))
	for r, s := range base {
		out[r] = make([]K, len(s))
		for i, k := range s {
			out[r][i] = ops.from(k, r*c.in.n+i)
		}
	}
	return out
}

// ---- Oracles ----

// digest is an ordered hash of a key sequence, and its length.
type digest struct {
	n int
	h uint64
}

func digestOf[K any](h digest, ks []K, hash func(uint64, K) uint64) digest {
	for _, k := range ks {
		h.h = hash(h.h, k)
	}
	h.n += len(ks)
	return h
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// outcome is what the checks compare: each rank's output digest and the
// stats.
type outcome struct {
	ranks []digest
	stats Stats
}

// reference sorts the cell's reference, once per test binary: the same
// protocol and input on sim, materializing, serial, in memory, on the
// comparator plane. A cell that streamsFlat streams in its reference
// too, which sorts flat as it does; the cell itself is then also held to
// the materializing exchange under a shared plan (materializingOracle).
// Byte strings keep their plane — prefix and comparator planes agree
// only without prefix collisions — except on hashlike keys, which have
// none (run checks it). Histogram sort keeps its constructor: it has no
// comparator plane. This is the one place a cell's oracle is derived.
func reference(t *testing.T, c cell) (cell, outcome) {
	r := cell{name: "reference", cfg: c.cfg, key: cmp.Or(c.key, "int64"), in: c.in, baseline: c.baseline}
	r.cfg.Transport, r.cfg.Workers, r.cfg.MemoryBudget = TransportSim, 1, 0
	r.cfg.StreamExchange, r.cfg.ChunkKeys = streamsFlat(c), 0
	r.comparator = c.baseline != "histogramsort" && (c.key != "bytes" || c.in.dist == "hashlike")
	return r, memoized(refs, fmt.Sprintf("%+v", r), func() outcome { return sortCell(t, r) })
}

// run sorts the cell and checks it against the contract, the stats
// invariants and its reference.
func run(t *testing.T, c cell) {
	t.Helper()
	c.oracle = streamsFlat(c)
	got := sortCell(t, c)
	r, want := reference(t, c)
	for i := range want.ranks {
		if got.ranks[i] != want.ranks[i] {
			t.Fatalf("rank %d differs from the reference (%d vs %d keys)", i, got.ranks[i].n, want.ranks[i].n)
		}
	}
	g, w := got.stats, want.stats
	if g.Rounds != w.Rounds || g.TotalSample != w.TotalSample || g.Imbalance != w.Imbalance {
		t.Errorf("protocol diverged from the reference: %d rounds/%d sample/imbalance %v, reference %d/%d/%v",
			g.Rounds, g.TotalSample, g.Imbalance, w.Rounds, w.TotalSample, w.Imbalance)
	}
	// Sim accounts bytes as a function of the protocol and the plane's
	// element type; credit grants make the streaming exchange's timing
	// dependent.
	if c.cfg.Transport == TransportSim && c.comparator == r.comparator && !c.seeded {
		if g.SplitterBytes != w.SplitterBytes || !streams(c.cfg) && g.ExchangeBytes != w.ExchangeBytes {
			t.Errorf("bytes diverged from the reference: splitter %d, exchange %d; reference %d, %d",
				g.SplitterBytes, g.ExchangeBytes, w.SplitterBytes, w.ExchangeBytes)
		}
	}
}

func sortCell(t *testing.T, c cell) outcome {
	t.Helper()
	c.cfg.Procs, c.key = c.in.p, cmp.Or(c.key, "int64")
	switch c.key {
	case "int64":
		return sortAs(t, c, numeric(int64Key, int64Bits))
	case "uint64":
		return sortAs(t, c, numeric(func(k int64) uint64 { return uint64(k) }, func(k uint64) uint64 { return k }))
	case "int32":
		return sortAs(t, c, numeric(func(k int64) int32 { return int32(k) }, func(k int32) uint64 { return uint64(k) }))
	case "float64":
		return sortAs(t, c, numeric(float64Key, math.Float64bits))
	case "float32":
		return sortAs(t, c, numeric(float32Key, float32Bits))
	case "kv":
		return sortAs(t, c, records(int64Key, int64Bits))
	case "kv-float64":
		return sortAs(t, c, records(float64Key, math.Float64bits))
	case "bytes":
		return sortAs(t, c, bytesOps)
	}
	panic("no key type " + c.key)
}

// sortAs sorts the cell through one engine — plus, for a seeded cell,
// its plan and a sort seeded with it, and for a repeating one a second
// sort — and checks every output against the contract.
func sortAs[K any](t *testing.T, c cell, ops keyOps[K]) outcome {
	t.Helper()
	what := cmp.Or(c.name, "cell")
	newEngine := ops.new
	if c.comparator && c.baseline != "histogramsort" {
		newEngine = func(cfg Config) (*Sorter[K], error) { return NewFunc(cfg, ops.order) }
	}
	eng, err := newEngine(c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer eng.Close()
	withBaseline(eng, c.baseline)
	in := func() [][]K { return shardsOf(c, ops) }
	var outs [][]K
	var next *Plan[K]
	var st Stats
	if c.seeded {
		outs, next, st, err = eng.SortSeeded(bg, nil, in())
	} else {
		outs, st, err = eng.Sort(bg, in())
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	o := outcome{ranks: check(t, what, c, ops, outs), stats: st}
	checkStats[K](t, what, c, st)
	if c.repeat {
		again, st2, err := eng.Sort(bg, in())
		if err != nil {
			t.Fatalf("%s repeated: %v", what, err)
		}
		for r := range outs {
			if digestOf(digest{}, again[r], ops.hash) != digestOf(digest{}, outs[r], ops.hash) {
				t.Fatalf("%s: rank %d differs on a repeat through the same engine", what, r)
			}
		}
		if st2.Rounds != st.Rounds || st2.TotalSample != st.TotalSample || st2.Imbalance != st.Imbalance {
			t.Errorf("%s: protocol differs on a repeat: %+v vs %+v", what, st2, st)
		}
	}
	if c.seeded {
		plan, err := eng.Plan(bg, in())
		if err != nil {
			t.Fatalf("%s plan: %v", what, err)
		}
		if next == nil || !reflect.DeepEqual(next.Splitters, plan.Splitters) || next.Rounds != plan.Rounds ||
			next.TotalSample != plan.TotalSample || next.Finalized != plan.Finalized || next.Buckets != plan.Buckets || next.N != plan.N {
			t.Errorf("%s: the unseeded sort's plan differs from Plan's:\n got %+v\nwant %+v", what, next, plan)
		}
		seeded, again, sst, err := eng.SortSeeded(bg, plan, in())
		if err != nil {
			t.Fatalf("%s seeded: %v", what, err)
		}
		if sst.Rounds != 0 || sst.TotalSample != 0 || sst.Imbalance != st.Imbalance {
			t.Errorf("%s: its own plan as the seed ran %d rounds, %d sample, imbalance %v (unseeded %v)",
				what, sst.Rounds, sst.TotalSample, sst.Imbalance, st.Imbalance)
		}
		if again == nil || !reflect.DeepEqual(again.Splitters, plan.Splitters) {
			t.Errorf("%s: an accepted seed's plan moved its splitters", what)
		}
		if !slices.Equal(check(t, what, c, ops, seeded), o.ranks) {
			t.Fatalf("%s: the seeded sort's output differs from the unseeded one", what)
		}
	}
	if c.oracle {
		materializingOracle(t, what, c, ops, eng, newEngine, in)
	}
	for r, m := range eng.spills {
		if m.Room() != m.Budget() {
			t.Errorf("%s: rank %d: %d bytes still charged to the budget after the sorts", what, r, m.Budget()-m.Room())
		}
	}
	return o
}

// materializingOracle holds a cell that streamsFlat to the materializing
// exchange, the streaming path's oracle, all the same: the materializing
// sort's own plan seeds a sort through a materializing engine and
// through the cell's. A finalized two-level plan is within 1+ε over all
// p buckets and within each level's 1+ε_level, so both accept it, cut at
// the same p−1 splitters and must agree on every rank. An input on
// which no plan finalizes (heavy duplicates, untagged) has no shared cut
// to compare.
func materializingOracle[K any](t *testing.T, what string, c cell, ops keyOps[K], eng *Sorter[K], newEngine func(Config) (*Sorter[K], error), in func() [][]K) {
	t.Helper()
	cfg := c.cfg
	cfg.StreamExchange, cfg.ChunkKeys, cfg.MemoryBudget, cfg.SpillDir = false, 0, 0, ""
	m, err := newEngine(cfg)
	if err != nil {
		t.Fatalf("%s materializing: %v", what, err)
	}
	defer m.Close()
	withBaseline(m, c.baseline)
	plan, err := m.Plan(bg, in())
	if err != nil {
		t.Fatalf("%s materializing plan: %v", what, err)
	}
	if !plan.Finalized {
		return
	}
	want, _, wst, err := m.SortSeeded(bg, plan, in())
	if err != nil {
		t.Fatalf("%s materializing seeded: %v", what, err)
	}
	got, _, gst, err := eng.SortSeeded(bg, plan, in())
	if err != nil {
		t.Fatalf("%s seeded with the materializing plan: %v", what, err)
	}
	if wst.Rounds != 0 || gst.Rounds != 0 {
		t.Fatalf("%s: the materializing plan (achieved ε %v) ran %d rounds materializing and %d streaming",
			what, plan.AchievedEpsilon, wst.Rounds, gst.Rounds)
	}
	if !slices.Equal(check(t, what, c, ops, got), check(t, what, c, ops, want)) {
		t.Fatalf("%s: under the materializing plan the streaming sort's ranks differ from the materializing sort's", what)
	}
}

// check holds outs to the contract — each rank in order, ranks in order,
// and the whole a permutation of the input, records with their payloads
// — and returns the rank digests.
func check[K any](t *testing.T, what string, c cell, ops keyOps[K], outs [][]K) []digest {
	t.Helper()
	var last *K
	ranks := make([]digest, len(outs))
	got := digest{}
	for r, o := range outs {
		if !slices.IsSortedFunc(o, ops.order) {
			t.Fatalf("%s: rank %d output not sorted", what, r)
		}
		if len(o) > 0 {
			if last != nil && ops.order(*last, o[0]) > 0 {
				t.Fatalf("%s: rank %d starts below its predecessor's last key", what, r)
			}
			last = &o[len(o)-1]
		}
		// Each rank's digest continues its predecessor's hash, so the
		// last is the whole output's.
		ranks[r] = digestOf(digest{h: got.h}, o, ops.rank)
		got = digest{got.n + len(o), ranks[r].h}
	}
	// The whole in its total order, where the output may hold ties in
	// any order: records and cmp.Compare's ±0 and NaNs.
	if strings.HasPrefix(c.key, "kv") || c.in.dist == "full+nan-payloads" {
		all := slices.Concat(outs...)
		ops.sort(all)
		got = digestOf(digest{}, all, ops.hash)
	}
	want := memoized(contract, fmt.Sprintf("%s %+v", c.key, c.in), func() digest {
		all := slices.Concat(shardsOf(c, ops)...)
		ops.sort(all)
		return digestOf(digest{}, all, ops.hash)
	})
	if got != want {
		t.Fatalf("%s: output is not a sorted permutation of the input (%d vs %d keys)", what, got.n, want.n)
	}
	return ranks
}

// checkStats holds the invariants each dimension promises of Stats.
func checkStats[K any](t *testing.T, what string, c cell, st Stats) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(what+": "+format, args...)
	}
	p, cfg := int64(c.in.p), c.cfg
	if buckets := cmp.Or(cfg.Buckets, c.in.p); st.N != p*int64(c.in.n) || st.Buckets != buckets || st.Total() <= 0 {
		fail("N %d, Buckets %d, time %v: want %d keys in %d buckets", st.N, st.Buckets, st.Total(), p*int64(c.in.n), buckets)
	}
	switch cfg.Transport {
	case TransportSim:
		if st.TotalBytes <= 0 || st.TotalMsgs <= 0 {
			fail("sim accounted no traffic")
		}
	case TransportInproc:
		if st.TotalBytes != 0 || st.TotalMsgs != 0 {
			fail("inproc accounted %d msgs / %d bytes", st.TotalMsgs, st.TotalBytes)
		}
	case TransportTCP:
		if st.TotalBytes <= 0 || st.TotalMsgs <= 0 {
			fail("tcp measured no traffic")
		}
	}
	if streams(cfg) {
		// The chunks carry K — records tagged under TagDuplicates — or,
		// on the bijective plane, 8-byte codes.
		keySize := max(comm.SizeOf[K](), 8)
		if cfg.TagDuplicates {
			keySize = comm.SizeOf[tagged[K]]()
		}
		bound := (p - 1) * exchange.DefaultStreamWindow * int64(cmp.Or(cfg.ChunkKeys, exchange.DefaultChunkKeys)) * keySize
		// A budgeted rank may divert every incoming stream, admitting
		// none to the merge.
		lo := int64(1)
		if cfg.MemoryBudget > 0 {
			lo = 0
		}
		if st.PeakInFlightBytes < lo || st.PeakInFlightBytes > bound {
			fail("peak in-flight %d bytes, want in [%d, %d]", st.PeakInFlightBytes, lo, bound)
		}
	} else if st.ExchangeOverlap != 0 || st.PeakInFlightBytes != 0 {
		fail("materializing exchange reported overlap %v, in-flight %d", st.ExchangeOverlap, st.PeakInFlightBytes)
	}
	if cfg.Workers != 0 && st.Workers != cfg.Workers {
		fail("Stats.Workers = %d, want %d", st.Workers, cfg.Workers)
	}
	if cfg.Workers > 1 && c.in.n >= parCutoff && st.ParTasks == 0 {
		fail("Workers %d ran %d pool tasks", cfg.Workers, st.ParTasks)
	}
	if b := cfg.MemoryBudget; b > 0 {
		if st.SpilledBytes <= 0 || st.SpillFileBytes <= 0 || st.SpillReads <= 0 || st.PeakResidentBytes <= 0 || st.PeakResidentBytes > b {
			fail("budget %d: spilled %d, on disk %d, %d reads, peak resident %d", b, st.SpilledBytes, st.SpillFileBytes, st.SpillReads, st.PeakResidentBytes)
		}
	} else if st.SpilledBytes != 0 || st.PeakResidentBytes != 0 {
		fail("unbudgeted sort spilled %d, peak resident %d", st.SpilledBytes, st.PeakResidentBytes)
	}
	if prefix := c.key == "bytes" && !c.comparator; !prefix || c.in.dist == "hashlike" || c.in.dist == "urllike" {
		want := int64(0) // off the prefix plane, and on hash-like keys
		if prefix && c.in.dist == "urllike" {
			want = st.N // one 8-byte scheme prefix
		}
		if st.PrefixCollisions != want {
			fail("PrefixCollisions = %d, want %d", st.PrefixCollisions, want)
		}
	}
	if eps := cmp.Or(cfg.Epsilon, 0.05); c.balanced && st.Imbalance > 1+eps+1e-9 {
		fail("imbalance %.4f, want at most 1+%v", st.Imbalance, eps)
	}
}

// ---- Filters ----

// workerSweep is the Workers values above 1 a filter sweeps: two small
// pools and the machine's GOMAXPROCS.
func workerSweep() []int {
	sweep := []int{2, 3, runtime.GOMAXPROCS(0)}
	slices.Sort(sweep)
	return slices.DeleteFunc(slices.Compact(sweep), func(w int) bool { return w <= 1 })
}

func TestCodePathEquivalence(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 3}, in: input{p: 6, n: 3000, seed: 41}},
		pick(algorithm, "hss", "hss-overpartition", "histogramsort", "samplesort-regular", "samplesort-random"),
		dim("%v", transport, TransportSim, TransportInproc), exchanges("materializing", "streaming")))
}

// TestCodePathEquivalenceKeyTypes sweeps the built-in coders: uint64 with
// the sign bit set, float64 through subnormals and negatives, int32
// through the widening coder, and negative int64 keys streamed.
func TestCodePathEquivalenceKeyTypes(t *testing.T) {
	base := cell{cfg: Config{Seed: 7}, in: input{dist: "full", p: 5, n: 2000, seed: 23}}
	runAll(t, append(product(base, pick(keyType, "uint64", "float64", "int32"), pick(algorithm, "hss", "histogramsort", "samplesort-regular")),
		product(base, []val{{"int64-streaming", func(c *cell) { streaming(c, true) }}})...))
}

func TestCodePathKVEquivalence(t *testing.T) {
	runAll(t, product(cell{key: "kv", cfg: Config{Seed: 11}, in: input{dist: "dupheavy", p: 4, n: 2000, seed: 43}},
		pick(algorithm, "hss", "samplesort-regular"), exchanges("materializing", "streaming")))
}

// TestSmallMessageEquivalence is the small-message regime: 256 ranks of
// 500 keys, so probe lists outnumber local keys and the exchange moves a
// couple of keys per message. The all-equal input never finalizes.
func TestSmallMessageEquivalence(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 5}, in: input{p: 256, n: 500, seed: 71}},
		pick(distribution, "powerskew", "zipfian", "all-equal"), dim("%v", transport, TransportSim, TransportInproc),
		exchanges("materializing", "streaming")))
}

// TestTwoLevelEquivalence sweeps world sizes around the two-level
// predicate (core.Levels: 16 and 64 split, prime 17 stays flat) and the
// benchmark's 256, over keys, records, byte strings and tagged
// duplicates, each within 1+ε; the untagged cells also re-seed with their
// own plan, which must then run no round. The baselines run their
// strategies on the row groups. Under a memory budget 16 ranks sort flat,
// their Plan too, and are held to the two-level materializing sort under
// its plan (materializingOracle).
func TestTwoLevelEquivalence(t *testing.T) {
	sizes := dim("p=%d", func(c *cell, p int) { c.in.p = p }, 16, 17, 64, 256)
	base := cell{balanced: true, cfg: Config{Epsilon: 0.05, Seed: 7}, in: input{dist: "powerskew", n: 300, seed: 19}}
	budgeted := base
	budgeted.name, budgeted.seeded, budgeted.in.p, budgeted.in.n, budgeted.cfg.MemoryBudget = "budget/p=16", true, 16, 2000, 2000*8/2
	runAll(t, append(append(product(base, sizes,
		[]val{{"int64", func(c *cell) { c.seeded = true }}, {"kv", func(c *cell) { c.key, c.seeded = "kv", true }},
			{"bytes", func(c *cell) { c.key, c.seeded, c.in.dist = "bytes", true, "hashlike" }},
			{"tagged", func(c *cell) { c.cfg.TagDuplicates, c.in.dist = true, "dupheavy" }}}),
		product(cell{cfg: Config{Seed: 7}, in: input{p: 64, n: 300, seed: 19}}, pick(algorithm, "samplesort-regular", "histogramsort"))...),
		budgeted))
}

// TestTwoLevelTinyInputs: at 64 ranks inputs that leave ranks or groups
// without keys sort to the contract. No keys and fewer keys than ranks
// sort flat (core.Levels); one key repeated sorts in 8 groups of 8, all
// in the last group. Any keys at all plan p−1 sorted splitters (an empty
// group repeats a level-1 splitter), and the plan seeds the next sort of
// the same input.
func TestTwoLevelTinyInputs(t *testing.T) {
	const p = 64
	few := make([][]int64, p)
	for r, k := range []int64{5, 1, 9, 3, 7} {
		few[r*13] = []int64{k}
	}
	for name, in := range map[string][][]int64{
		"no-keys": make([][]int64, p), "fewer-keys-than-ranks": few, "all-equal": draw(input{dist: "all-equal", p: p, n: 100, seed: 3}),
	} {
		t.Run(name, func(t *testing.T) {
			eng, err := New[int64](Config{Procs: p, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			want := slices.Concat(in...)
			slices.Sort(want)
			var plan *Plan[int64]
			for i := range 2 {
				outs, next, _, err := eng.SortSeeded(bg, plan, cloneShards(in))
				if err != nil {
					t.Fatalf("sort %d: %v", i, err)
				}
				if !slices.Equal(slices.Concat(outs...), want) {
					t.Fatalf("sort %d: output is not the sorted input", i)
				}
				if len(want) == 0 {
					if next != nil {
						t.Fatalf("a plan from no keys: %v", next.Splitters)
					}
					return
				}
				if next == nil || len(next.Splitters) != p-1 || !slices.IsSorted(next.Splitters) {
					t.Fatalf("sort %d: plan %+v, want %d sorted splitters", i, next, p-1)
				}
				plan = next
			}
		})
	}
}

func TestPlanSortWithPlanEquivalence(t *testing.T) {
	runAll(t, product(cell{seeded: true, cfg: Config{Seed: 7}, in: input{dist: "powerskew", p: 6, n: 2500, seed: 17}},
		pick(algorithm, "hss"), dim("%v", transport, TransportSim, TransportInproc),
		exchanges("materializing", "stream"), planes("off", "auto")))
}

func TestSpillEquivalence(t *testing.T) {
	quarter := int64(bigN) * 8 / 4
	runAll(t, append(product(cell{cfg: Config{Epsilon: 0.1, Seed: 3}, in: input{dist: "powerskew", p: 4, n: bigN, seed: 83}},
		dim("%v", transport, TransportSim, TransportInproc, TransportTCP), exchanges("materializing", "streaming"),
		planes("off", "on"), dim("workers=%d", workers, slices.Compact([]int{1, runtime.GOMAXPROCS(0)})...),
		dim("budget=%d", budget, quarter, quarter/2)),
		smallShardStreams(cell{cfg: Config{Epsilon: 0.1, Seed: 3}, in: input{dist: "powerskew", seed: 83}}, 8,
			dim("%v", transport, TransportSim, TransportInproc, TransportTCP))...))
}

// smallShardStreams streams 8000 keys of keySize bytes per rank under a
// half and a quarter of a shard: admitted chunks fill either budget
// before a stream diverts, so the diverted streams' read-back frames
// must find room beside them.
func smallShardStreams(base cell, keySize int64, dims ...[]val) []cell {
	const n = 8000
	shard := n * keySize
	dims = slices.Concat([][]val{{{"keys=8000", func(c *cell) { c.in.p, c.in.n = 4, n }}}}, dims,
		[][]val{exchanges("", "streaming")[1:], dim("budget=%d", budget, shard/2, shard/4)})
	return product(base, dims...)
}

// TestSpillEquivalenceAlgorithms runs every other algorithm at a quarter
// budget.
func TestSpillEquivalenceAlgorithms(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 5, MemoryBudget: bigN * 8 / 4}, in: input{p: 4, n: bigN, seed: 97}},
		pick(algorithm, "samplesort-regular", "samplesort-random", "histogramsort"),
		exchanges("materializing", "streaming")))
}

func TestSpillEquivalenceKV(t *testing.T) {
	runAll(t, append(product(cell{key: "kv", cfg: Config{Epsilon: 0.1, Seed: 21, MemoryBudget: bigN * 16 / 4}, in: input{dist: "dupheavy", p: 4, n: bigN, seed: 41}},
		exchanges("materializing", "streaming")),
		smallShardStreams(cell{key: "kv", cfg: Config{Epsilon: 0.1, Seed: 21}, in: input{dist: "dupheavy", seed: 41}}, 16)...))
}

func TestStreamExchangeEquivalence(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 3}, in: input{p: 8, n: 4000, seed: 33}},
		pick(algorithm, "hss", "hss-overpartition", "samplesort-regular", "samplesort-random",
			"histogramsort", "hss-duplicates"),
		dim("%v", transport, TransportSim, TransportInproc), exchanges("materializing", "streaming")[1:]))
}

// TestTCPSortEquivalence's two-level cells are 16 ranks of 500 keys and
// of 300 byte-string keys: level 2's row groups and the column all-gather
// of their splitters cross the wire codec.
func TestTCPSortEquivalence(t *testing.T) {
	runAll(t, append(product(cell{cfg: Config{Seed: 5, Transport: TransportTCP}, in: input{dist: "powerskew", p: 4, n: 2000, seed: 17}},
		pick(algorithm, "hss", "samplesort=samplesort-regular", "histogramsort"),
		exchanges("stream=false", "stream=true"), planes("codepath=off", "codepath=on")),
		cell{name: "two-level", cfg: Config{Seed: 5, Transport: TransportTCP}, in: input{dist: "powerskew", p: 16, n: 500, seed: 17}},
		cell{name: "two-level-bytes", key: "bytes", cfg: Config{Seed: 5, Transport: TransportTCP}, in: input{dist: "hashlike", p: 16, n: 300, seed: 17}}))
}

func TestTCPSortKVEquivalence(t *testing.T) {
	run(t, cell{key: "kv", cfg: Config{Epsilon: 0.05, Seed: 11, Transport: TransportTCP, StreamExchange: true},
		in: input{dist: "gaussian", p: 4, n: 1500, seed: 23}})
}

func TestSortEquivalentAcrossTransports(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 3, Transport: TransportInproc}, in: input{p: 8, n: 5000, seed: 21}},
		append(pick(algorithm, "hss-skewed=hss", "samplesort=samplesort-regular", "histogramsort"),
			val{"hss-uniform", func(c *cell) { c.in.dist = "uniform"; algorithm(c, "hss") }})))
}

func TestWorkersEquivalence(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 3}, in: input{p: 4, n: bigN, seed: 61}},
		pick(algorithm, "hss", "samplesort=samplesort-regular", "histogramsort"),
		dim("%v", transport, TransportSim, TransportInproc, TransportTCP), exchanges("materializing", "streaming"),
		planes("off", "on"), dim("workers=%d", workers, workerSweep()...)))
}

func TestWorkersEquivalenceKV(t *testing.T) {
	runAll(t, product(cell{key: "kv", cfg: Config{Seed: 13}, in: input{dist: "dupheavy", p: 4, n: bigN, seed: 53}},
		pick(algorithm, "hss", "samplesort-regular"), exchanges("materializing", "streaming"),
		dim("workers=%d", workers, workerSweep()...)))
}

// TestWorkersDeterminism: a fixed Workers count sorts the same input to
// the same output every time, records' payload order included.
func TestWorkersDeterminism(t *testing.T) {
	runAll(t, product(cell{repeat: true, cfg: Config{Epsilon: 0.1, Seed: 17, Workers: 3}, in: input{dist: "dupheavy", p: 4, n: bigN, seed: 67}},
		pick(keyType, "keys=int64", "records=kv")))
}

func TestWorkersTagDuplicates(t *testing.T) {
	runAll(t, product(cell{balanced: true, cfg: Config{Epsilon: 0.1, Seed: 23, TagDuplicates: true}, in: input{dist: "3-valued", p: 4, n: bigN, seed: 1}},
		dim("workers=%d", workers, workerSweep()...)))
}

func TestTagDuplicatesRestoresBalance(t *testing.T) {
	run(t, cell{balanced: true, cfg: Config{Epsilon: 0.1, Seed: 7, TagDuplicates: true}, in: input{dist: "2-valued", p: 4, n: 800, seed: 1}})
}

func TestVirtualProcessorBuckets(t *testing.T) {
	run(t, cell{cfg: Config{Buckets: 16, Epsilon: 0.1}, in: input{dist: "gaussian", p: 4, n: 1000, seed: 9}})
}

func TestStreamExchangeStats(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Epsilon: 0.1, Seed: 3}, in: input{dist: "uniform", p: 4, n: bigN, seed: 9}},
		exchanges("materializing", "streaming")))
}

func TestSortAllAlgorithms(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 5}, in: input{dist: "uniform", p: 4, n: 1000, seed: 3}}, pick(algorithm, algNames...)))
}

// TestAllAlgorithmsUnderRace is every algorithm at once on the
// concurrent paths — inproc, a worker pool, both exchange forms — for
// the race detector.
func TestAllAlgorithmsUnderRace(t *testing.T) {
	runAll(t, product(cell{cfg: Config{Seed: 3, Transport: TransportInproc, Workers: 2}, in: input{p: 4, n: 300, seed: 13}},
		pick(algorithm, algNames...), exchanges("materializing", "streaming")))
}

// TestSortDeterministicGivenSeed: a seed fixes outputs and protocol, and
// the sorted output does not depend on it.
func TestSortDeterministicGivenSeed(t *testing.T) {
	runAll(t, product(cell{repeat: true, cfg: Config{Epsilon: 0.1}, in: input{dist: "powerskew", p: 6, n: 2000, seed: 9}},
		dim("seed=%d", protocolSeed, 7, 8)))
}

func TestSortFloatKeys(t *testing.T) {
	runAll(t, product(cell{key: "float64", in: input{dist: "full", p: 4, n: 500, seed: 1}}, pick(algorithm, "hss", "histogramsort")))
}

// nanAuto is the default plane over an input holding one NaN, which the
// code plane sorts first, as the comparator plane does.
var nanAuto = val{"nan-auto", func(c *cell) { c.in.dist = "full+nan" }}

// TestSortFloat32Keys: the float32 coder engages the code plane, with
// and without a NaN.
func TestSortFloat32Keys(t *testing.T) {
	runAll(t, product(cell{key: "float32", cfg: Config{Epsilon: 0.2}, in: input{dist: "full", p: 3, n: 200, seed: 5}},
		[]val{{"on", func(*cell) {}}, nanAuto}))
}

// TestNarrowKeysHistogramSortBalance: histogram sort meets 1+ε on the
// widening coders' key types, with and without a NaN.
func TestNarrowKeysHistogramSortBalance(t *testing.T) {
	runAll(t, product(cell{balanced: true, baseline: "histogramsort", cfg: Config{Epsilon: 0.1, Seed: 3}, in: input{dist: "full", p: 4, n: 6000, seed: 3}},
		pick(keyType, "int32", "float32"), append(planes("off", "on"), nanAuto)))
}

// TestNaNPayloadsSortFirst: NaNs of both signs and several payloads,
// and -0 beside +0, sort on the code plane into a bit-exact permutation
// in cmp.Compare order, every NaN first. cmp.Compare ties them, so no
// reference pins their ranks: only the contract is checked.
func TestNaNPayloadsSortFirst(t *testing.T) {
	cs := product(cell{cfg: Config{Seed: 3}, in: input{dist: "full+nan-payloads", p: 4, n: 1500, seed: 7}},
		pick(keyType, "float64", "float32", "kv=kv-float64"), pick(algorithm, "hss", "samplesort-random", "histogramsort"),
		exchanges("materializing", "streaming"))
	for _, c := range slices.DeleteFunc(cs, func(c cell) bool { return c.key == "kv-float64" && c.baseline == "histogramsort" }) {
		t.Run(c.name, func(t *testing.T) { sortCell(t, c) })
	}
}

// TestSortKVCarriesPayloads: every record arrives with its own payload.
func TestSortKVCarriesPayloads(t *testing.T) {
	run(t, cell{key: "kv", balanced: true, cfg: Config{Epsilon: 0.1, Seed: 3}, in: input{dist: "uniform", p: 4, n: 2000, seed: 5}})
}

func TestSortKVWithTagging(t *testing.T) {
	run(t, cell{key: "kv", balanced: true, cfg: Config{Epsilon: 0.1, Seed: 7, TagDuplicates: true}, in: input{dist: "3-valued", p: 4, n: 1000, seed: 1}})
}

// TestSortManyRanks: 256 ranks on the default plane meet 1+ε. It shares
// TestSmallMessageEquivalence's input, and so its reference.
func TestSortManyRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank world")
	}
	run(t, cell{balanced: true, cfg: Config{Seed: 5}, in: input{dist: "powerskew", p: 256, n: 500, seed: 71}})
}

func TestSortKVAllHSSAlgorithms(t *testing.T) {
	runAll(t, product(cell{key: "kv", in: input{dist: "full", p: 4, n: 800, seed: 9}},
		pick(algorithm, "hss", "samplesort-regular", "samplesort-random")))
}

// TestSortBytesAllAlgorithms runs every algorithm over hash-like keys,
// whose prefix codes never collide: the prefix plane must then agree
// with the comparator plane (TestSortBytesCrossPlane).
func TestSortBytesAllAlgorithms(t *testing.T) {
	runAll(t, product(cell{key: "bytes", cfg: Config{Seed: 5}, in: input{dist: "hashlike", p: 4, n: 1000, seed: 3}}, pick(algorithm, algNames...)))
}

func TestSortBytesCrossPlane(t *testing.T) {
	run(t, cell{key: "bytes", cfg: Config{Epsilon: 0.05, Seed: 23}, in: input{dist: "hashlike", p: 4, n: 2000, seed: 19}})
}

// TestSortBytesMatrixEquivalence sweeps byte keys over transports,
// exchange forms and worker pools, the all-shared-prefix and
// duplicate-heavy worst cases included.
func TestSortBytesMatrixEquivalence(t *testing.T) {
	runAll(t, product(cell{key: "bytes", cfg: Config{Epsilon: 0.05, Seed: 17}, in: input{p: 4, n: 1200, seed: 13}},
		pick(distribution, "hashlike", "urllike-shared-prefix=urllike", "loglines", "dupheavy"),
		dim("%v", transport, TransportSim, TransportInproc, TransportTCP), exchanges("stream=false", "stream=true"),
		dim("workers=%d", workers, 1, 2, runtime.GOMAXPROCS(0))))
}

func TestPlanOtherAlgorithms(t *testing.T) {
	runAll(t, product(cell{seeded: true, cfg: Config{Seed: 3}, in: input{dist: "exponential", p: 6, n: 2000, seed: 23}},
		pick(algorithm, "samplesort-regular", "samplesort-random", "histogramsort", "hss=hss-overpartition")))
}

// TestBaselinesRunThroughEngine: withBaseline really swaps the splitter
// strategy — the engine on the code plane sorts exactly as the baseline's
// own Sort on the skeleton, to the splitter round and the sample size.
func TestBaselinesRunThroughEngine(t *testing.T) {
	const p, n = 4, 3000
	shards := dist.Spec{Kind: dist.Exponential}.Shards(n, p, 5)
	sorts := map[string]func(*comm.Comm, []int64, core.Options[int64]) ([]int64, core.Stats, error){
		"samplesort-regular": func(c *comm.Comm, local []int64, o core.Options[int64]) ([]int64, core.Stats, error) {
			return samplesort.Sort(c, local, o, samplesort.Options{Method: samplesort.Regular})
		},
		"samplesort-random": func(c *comm.Comm, local []int64, o core.Options[int64]) ([]int64, core.Stats, error) {
			return samplesort.Sort(c, local, o, samplesort.Options{Method: samplesort.Random})
		},
		"histogramsort": func(c *comm.Comm, local []int64, o core.Options[int64]) ([]int64, core.Stats, error) {
			return histsort.Sort(c, local, o, histsort.Options[int64]{Coder: keycoder.Int64{}})
		},
	}
	for name, sort := range sorts {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Procs: p, Epsilon: 0.1, Seed: 7}
			eng, err := New[int64](cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			withBaseline(eng, name)
			got, st, err := eng.Sort(bg, cloneShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]int64, p)
			var wst core.Stats
			err = comm.NewWorld(p).Run(func(c *comm.Comm) error {
				o := core.Options[int64]{Cmp: cmp.Compare[int64], Code: keycoder.Int64{}.Encode, Epsilon: cfg.Epsilon, Seed: cfg.Seed}
				out, st, err := sort(c, slices.Clone(shards[c.Rank()]), o)
				want[c.Rank()] = out
				if c.Rank() == 0 {
					wst = st
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("engine output differs from the baseline's own sort")
			}
			if st.Rounds != wst.Rounds || st.TotalSample != wst.TotalSample {
				t.Errorf("engine ran %d rounds sampling %d keys, the baseline %d rounds sampling %d",
					st.Rounds, st.TotalSample, wst.Rounds, wst.TotalSample)
			}
		})
	}
}

// TestTwoLevelHistogramSortCountsSample: at 16 ranks classic histogram
// sort runs in two levels of 4×4, and every rank receives each round's
// probe broadcast, so the sort reports its probes per round and a
// TotalSample that is their sum, not 0.
func TestTwoLevelHistogramSortCountsSample(t *testing.T) {
	const p, n = 16, 500
	if _, _, two := core.Levels(p, p*n, core.Options[int64]{}); !two {
		t.Fatalf("%d ranks × %d keys sort flat", p, n)
	}
	eng, err := New[int64](Config{Procs: p, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	withBaseline(eng, "histogramsort")
	_, st, err := eng.Sort(bg, dist.Spec{Kind: dist.Uniform}.Shards(n, p, 3))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range st.SamplePerRound {
		sum += s
	}
	if st.TotalSample <= 0 || st.TotalSample != sum || len(st.SamplePerRound) != st.Rounds {
		t.Errorf("%d rounds, sample per round %v, TotalSample %d: want one positive count per round summing to TotalSample",
			st.Rounds, st.SamplePerRound, st.TotalSample)
	}
}

// TestSortSeededReturnsPlansPlan: on every plane, an unseeded
// SortSeeded ends with exactly the plan Plan prepares.
func TestSortSeededReturnsPlansPlan(t *testing.T) {
	cs := product(cell{seeded: true, cfg: Config{Seed: 11}, in: input{dist: "gaussian", p: 6, n: 1500, seed: 29}},
		append(pick(keyType, "bijective=int64", "record=kv", "prefix=bytes"), val{"comparator", func(c *cell) { c.comparator = true }}),
		pick(algorithm, "hss", "samplesort-regular", "histogramsort"))
	runAll(t, slices.DeleteFunc(cs, func(c cell) bool { return c.key == "kv" && c.baseline == "histogramsort" }))
}

func TestKVSorterPlan(t *testing.T) {
	run(t, cell{seeded: true, key: "kv", cfg: Config{Epsilon: 0.1, Seed: 3}, in: input{dist: "zipfian", p: 4, n: 1200, seed: 13}})
}

// TestPairwiseCoverage crosses what the matrices above keep apart —
// virtual buckets, HSS's default shape, seeded sorts, records and byte
// keys against every transport, exchange form, worker pool and a
// spilling budget — in a subset holding every pair of values. Pools and budgets
// get big shards, where the kernels fan out and every stream diverts.
func TestPairwiseCoverage(t *testing.T) {
	cs := product(cell{cfg: Config{Seed: 9}, in: input{dist: "gaussian", p: 4, n: 4000, seed: 7}},
		pick(algorithm, "hss-overpartition", "hss", "samplesort-random"),
		dim("%v", transport, TransportSim, TransportInproc, TransportTCP), exchanges("materializing", "streaming"),
		[]val{{"workers=1", func(*cell) {}}, {"workers=2", func(c *cell) { workers(c, 2); c.in.n = bigN }}},
		pick(keyType, "int64", "kv", "bytes"),
		[]val{{"in-memory", func(*cell) {}}, {"budget", func(c *cell) {
			// A sixth of the rank's data: 4p buckets spread the streams
			// so thin that under a quarter some never divert.
			c.in.n, c.cfg.MemoryBudget = bigN, bigN*8/6
			if c.key == "kv" {
				c.cfg.MemoryBudget *= 2
			}
		}}},
		dim("seeded=%t", seededSort, false, true))
	runAll(t, pairwise(slices.DeleteFunc(cs, func(c cell) bool { return c.key == "bytes" && c.cfg.MemoryBudget > 0 })))
}
