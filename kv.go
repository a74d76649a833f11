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

// NewKV creates a Sorter for keyed records. The plan's splitters are
// records whose payloads are incidental — only keys partition. Records
// with equal keys keep their per-bucket multiset but — as with any
// unstable sort — not a particular relative order.
//
// When the key type has a coder (the integer and float key types),
// records ride the decorated code plane: the local sort radix-sorts a
// uint64 code decoration with the payloads in tow, and partition cuts
// and merges compare codes instead of calling the comparator. NaN keys
// included, as on New's plane; NewFunc(cfg, CompareKV[K, V]) runs on
// the comparator plane.
func NewKV[K cmp.Ordered, V any](cfg Config) (*Sorter[KV[K, V]], error) {
	var code func(KV[K, V]) uint64
	if keyCoder := coderFor[K](); keyCoder != nil {
		code = func(kv KV[K, V]) uint64 { return keyCoder.Encode(kv.Key) }
	}
	return newSorter(cfg, CompareKV[K, V], nil, code, false)
}

// SortKV sorts keyed records across simulated processors; see Sort for
// semantics and NewKV for the record plane details. It is a one-shot
// wrapper over a throwaway NewKV engine.
func SortKV[K cmp.Ordered, V any](cfg Config, shards [][]KV[K, V]) ([][]KV[K, V], Stats, error) {
	if cfg.Procs == 0 {
		cfg.Procs = len(shards)
	}
	s, err := NewKV[K, V](cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Close()
	return s.Sort(context.Background(), shards)
}
