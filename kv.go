package hssort

import (
	"cmp"
	"context"
)

// KV pairs a sortable key with an opaque payload that travels with it
// through the exchange — the paper's experimental records are 8-byte
// integer keys with a 4-byte payload (Fig 6.1). Payloads are never
// inspected: all splitter decisions use only keys.
type KV[K cmp.Ordered, V any] struct {
	// Key orders the record.
	Key K
	// Val rides along.
	Val V
}

// CompareKV orders KV records by key. Records with equal keys compare
// equal; combine with Config.TagDuplicates for a strict total order on
// duplicate-heavy data.
func CompareKV[K cmp.Ordered, V any](a, b KV[K, V]) int {
	return cmp.Compare(a.Key, b.Key)
}

// KVSorter is the record-sorting engine: NewKV's counterpart of Sorter
// for keyed payloads. It exposes the same lifecycle — SortKV
// repeatedly over one long-lived machine, SortSeeded and its halves
// Plan/SortWithPlan for sorts that start from an earlier one's
// splitters, Close to release the workers.
type KVSorter[K cmp.Ordered, V any] struct {
	s *Sorter[KV[K, V]]
}

// NewKV creates a KVSorter. HistogramSort is unavailable for records (it
// needs key-space arithmetic); use the HSS variants or the sample sorts.
//
// When the key type admits an order-preserving code (built-in for the
// integer and float key types, or a key Coder supplied via
// Config.Coder) and Config.CodePath allows it, records ride the
// decorated code plane: the local sort radix-sorts a uint64 code
// decoration with the payloads in tow, and partition cuts and merges
// compare codes instead of calling the comparator.
func NewKV[K cmp.Ordered, V any](cfg Config) (*KVSorter[K, V], error) {
	keyCoder, err := resolveCoder(cfg, coderFor[K]())
	if err != nil {
		return nil, err
	}
	var code func(KV[K, V]) uint64
	var isNaN func(KV[K, V]) bool
	if keyCoder != nil {
		code = func(kv KV[K, V]) uint64 { return keyCoder.Encode(kv.Key) }
		var zero K
		switch any(zero).(type) {
		case float64, float32:
			isNaN = func(kv KV[K, V]) bool { return kv.Key != kv.Key }
		}
	}
	// The record engine resolves Config.Coder against the key type
	// above; clear it so the inner constructor does not retry the
	// resolution against the record type.
	cfg.Coder = nil
	s, err := newSorter(cfg, CompareKV[K, V], nil, code, isNaN, false)
	if err != nil {
		return nil, err
	}
	return &KVSorter[K, V]{s: s}, nil
}

// SortKV sorts keyed records across the engine's simulated processors;
// see Sorter.Sort for semantics. Records with equal keys keep their
// per-bucket multiset but — as with any unstable sort — not a
// particular relative order.
func (s *KVSorter[K, V]) SortKV(ctx context.Context, shards [][]KV[K, V]) ([][]KV[K, V], Stats, error) {
	return s.s.Sort(ctx, shards)
}

// Plan runs splitter determination only and returns the reusable plan;
// see Sorter.Plan. The plan's splitters are records whose payloads are
// incidental — only keys partition.
func (s *KVSorter[K, V]) Plan(ctx context.Context, shards [][]KV[K, V]) (*Plan[KV[K, V]], error) {
	return s.s.Plan(ctx, shards)
}

// SortSeeded sorts records starting from seed's splitters and returns
// the plan the sort ended with; see Sorter.SortSeeded.
func (s *KVSorter[K, V]) SortSeeded(ctx context.Context, seed *Plan[KV[K, V]], shards [][]KV[K, V]) ([][]KV[K, V], *Plan[KV[K, V]], Stats, error) {
	return s.s.SortSeeded(ctx, seed, shards)
}

// SortWithPlan sorts records seeded with a previously prepared plan;
// see Sorter.SortWithPlan.
func (s *KVSorter[K, V]) SortWithPlan(ctx context.Context, plan *Plan[KV[K, V]], shards [][]KV[K, V]) ([][]KV[K, V], Stats, error) {
	return s.s.SortWithPlan(ctx, plan, shards)
}

// Close stops the engine's worker goroutines. Idempotent.
func (s *KVSorter[K, V]) Close() { s.s.Close() }

// SortKV sorts keyed records across simulated processors; see Sort for
// semantics and NewKV for the record plane details. It is a one-shot
// wrapper over a throwaway KVSorter.
func SortKV[K cmp.Ordered, V any](cfg Config, shards [][]KV[K, V]) ([][]KV[K, V], Stats, error) {
	if cfg.Procs == 0 {
		cfg.Procs = len(shards)
	}
	s, err := NewKV[K, V](cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Close()
	return s.SortKV(context.Background(), shards)
}
