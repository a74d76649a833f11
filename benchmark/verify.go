package main

import (
	"bytes"
	"cmp"
	"fmt"
)

// digest identifies a multiset of keys independently of their order: the
// count, and the sum and xor of one hash per key. A dropped, duplicated or
// altered key changes at least the count or the sum; a swapped pair keeps
// the digest and is caught by the order checks instead.
type digest struct {
	n        int64
	sum, xor uint64
}

func digestOf[K any](shards [][]K, hash func(K) uint64) digest {
	var d digest
	for _, sh := range shards {
		d.n += int64(len(sh))
		for _, k := range sh {
			h := hash(k)
			d.sum += h
			d.xor ^= h
		}
	}
	return d
}

func hashInt64(k int64) uint64 { return uint64(k) }

// hashBytes is FNV-1a over the key.
func hashBytes(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range k {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// checkSorted is the output oracle: out[r] is ordered, every key of
// out[r+1] is at or above every key of out[r], and the keys are exactly the
// input's (count and checksum against want). It returns the achieved
// imbalance, max load over average load, which must not exceed maxImb.
func checkSorted[K any](out [][]K, compare func(K, K) int, hash func(K) uint64, want digest, maxImb float64) (float64, error) {
	var prev K
	seen := false
	maxLoad := 0
	for r, sh := range out {
		maxLoad = max(maxLoad, len(sh))
		for i, k := range sh {
			if seen && compare(prev, k) > 0 {
				if i == 0 {
					return 0, fmt.Errorf("rank %d starts below the end of the rank before it", r)
				}
				return 0, fmt.Errorf("rank %d is out of order at index %d", r, i)
			}
			prev, seen = k, true
		}
	}
	if got := digestOf(out, hash); got != want {
		return 0, fmt.Errorf("output holds %d keys (sum %x, xor %x), input %d (sum %x, xor %x)", got.n, got.sum, got.xor, want.n, want.sum, want.xor)
	}
	if want.n == 0 {
		return 1, nil
	}
	imb := float64(maxLoad) * float64(len(out)) / float64(want.n)
	if imb > maxImb {
		return imb, fmt.Errorf("imbalance %.4f above the allowed %.4f", imb, maxImb)
	}
	return imb, nil
}

func checkInt64(out [][]int64, want digest, maxImb float64) (float64, error) {
	return checkSorted(out, cmp.Compare[int64], hashInt64, want, maxImb)
}

func checkBytes(out [][][]byte, want digest, maxImb float64) (float64, error) {
	return checkSorted(out, bytes.Compare, hashBytes, want, maxImb)
}
