package codes

// The parallel local-sort and codec kernels: the same MSD radix sort and
// encode/decode maps as sort.go and codes.go, fanned over a bounded
// par.Pool. The top radix level is rewritten as a count/scatter pass —
// parallel strided counts, per-worker per-bucket offsets, a stable
// scatter into scratch, copy-back — and the 256 byte buckets then
// recurse through the serial in-place kernel, one bucket per task.
// SortByCodeInPlace trades the parallel top level for a serial in-place
// flagPass and keeps only the bucket fan-out, for callers that must not
// allocate shard-sized scratch.
//
// Determinism: every scatter position is a pure function of the input
// and the (n, workers)-deterministic par.Blocks boundaries, and bucket
// recursion is serial within a bucket, so output depends only on the
// input and the worker budget — and for the pure-code kernel not even
// on that, since a fully sorted code array is unique. The tandem kernel
// shares serial SortByCode's guarantee exactly: codes sorted, payloads
// riding their codes, duplicate-code payload order unspecified.
//
// A one-worker pool or a small input short-circuits to the serial
// kernels, so Workers=1 pipelines run byte-for-byte the PR 5 code.

import (
	"hssort/internal/keycoder"
	"hssort/internal/par"
)

// parCutoff is the input length below which the parallel kernels hand
// straight to their serial counterparts: under ~16k codes the counting
// pass and goroutine fork-join cost more than they save.
const parCutoff = 1 << 14

// SortPar is Sort fanned over the pool: one parallel count/scatter pass
// on the top radix byte, then the byte buckets sorted serially in
// parallel. Falls back to Sort for one-worker pools and small inputs.
func SortPar(cs []Code, p *par.Pool) {
	if p.Workers() == 1 || len(cs) < parCutoff {
		Sort(cs)
		return
	}
	parMSD[struct{}](cs, nil, topShift, p)
}

// SortByCodePar is SortByCode fanned over the pool: parallel extraction,
// then the tandem count/scatter sort. The pure code plane delegates to
// SortPar; one-worker pools and small inputs fall back to the serial
// kernel.
func SortByCodePar[E any](elems []E, code func(E) uint64, p *par.Pool) []Code {
	if cs, ok := any(elems).([]Code); ok {
		SortPar(cs, p)
		return cs
	}
	if p.Workers() == 1 || len(elems) < parCutoff {
		return SortByCode(elems, code)
	}
	cs := make([]Code, len(elems))
	blocks := par.Blocks(len(elems), p.Workers())
	p.Do(len(blocks), func(i int) {
		for j := blocks[i].Lo; j < blocks[i].Hi; j++ {
			cs[j] = Code(code(elems[j]))
		}
	})
	parMSD(cs, elems, topShift, p)
	return cs
}

// SortByCodeInPlace is SortByCodePar without the shard-sized scratch:
// the top radix level is one serial in-place flagPass instead of the
// parallel count/scatter, and the byte buckets are then fanned over the
// pool exactly as in parMSD. Beyond the returned code array (which is
// elems itself on the pure code plane) its allocation is O(1), which is
// what lets a memory-budgeted rank sort a resident shard of any size
// (spill.LocalSort). The result carries the same guarantee as
// SortByCodePar.
func SortByCodeInPlace[E any](elems []E, code func(E) uint64, p *par.Pool) []Code {
	if p.Workers() == 1 || len(elems) < parCutoff {
		return SortByCode(elems, code)
	}
	cs := ExtractPar(elems, code, p)
	pay := elems
	if _, pure := any(elems).([]Code); pure {
		pay = nil // cs aliases elems: there is no payload to drag
	}
	var end [256]int
	if shift := flagPass(cs, pay, topShift, &end); shift > 0 {
		sortBuckets(cs, pay, &end, shift-8, p)
	}
	return cs
}

// sortBuckets sorts each byte bucket of a partitioned level (bucket b is
// cs[end[b-1]:end[b]]) from the given shift down through the serial
// in-place kernel, one bucket per pool task; pay, when non-nil, rides
// along.
func sortBuckets[E any](cs []Code, pay []E, end *[256]int, shift int, p *par.Pool) {
	p.Do(256, func(b int) {
		lo, hi := 0, end[b]
		if b > 0 {
			lo = end[b-1]
		}
		if hi-lo <= 1 {
			return
		}
		if pay == nil {
			msd(cs[lo:hi], shift)
		} else {
			msdTandem(cs[lo:hi], pay[lo:hi], shift)
		}
	})
}

// parMSD runs the top radix level as a stable parallel count/scatter —
// with pay (when non-nil) permuted in lockstep — then recurses serially
// per byte bucket, buckets fanned over the pool. Degenerate levels
// (every code sharing the byte) are skipped without permuting, exactly
// as in the serial msd.
func parMSD[E any](cs []Code, pay []E, shift int, p *par.Pool) {
	n := len(cs)
	blocks := par.Blocks(n, p.Workers())
	nb := len(blocks)
	counts := make([][256]int, nb)
	var total [256]int
	for {
		p.Do(nb, func(i int) {
			cnt := &counts[i]
			*cnt = [256]int{}
			for _, c := range cs[blocks[i].Lo:blocks[i].Hi] {
				cnt[uint8(c>>shift)]++
			}
		})
		total = [256]int{}
		for i := range counts {
			for b := range total {
				total[b] += counts[i][b]
			}
		}
		if total[uint8(cs[0]>>shift)] == n {
			if shift == 0 {
				return
			}
			shift -= 8
			continue
		}
		break
	}
	// pos[b] starts at bucket b's offset in the rebuilt array;
	// offsets[i][b] is where block i's bucket-b codes land inside it, and
	// once every block is placed pos[b] has reached the bucket's end.
	// Blocks write in index order, so the scatter is stable and —
	// positions being pure functions of the counts — deterministic.
	var pos [256]int
	sum := 0
	for b := range pos {
		pos[b] = sum
		sum += total[b]
	}
	offsets := make([][256]int, nb)
	for i := 0; i < nb; i++ {
		offsets[i] = pos
		for b := range pos {
			pos[b] += counts[i][b]
		}
	}
	scratch := make([]Code, n)
	var payScratch []E
	if pay != nil {
		payScratch = make([]E, n)
	}
	p.Do(nb, func(i int) {
		off := offsets[i]
		for j := blocks[i].Lo; j < blocks[i].Hi; j++ {
			d := uint8(cs[j] >> shift)
			scratch[off[d]] = cs[j]
			if pay != nil {
				payScratch[off[d]] = pay[j]
			}
			off[d]++
		}
	})
	p.Do(nb, func(i int) {
		copy(cs[blocks[i].Lo:blocks[i].Hi], scratch[blocks[i].Lo:blocks[i].Hi])
		if pay != nil {
			copy(pay[blocks[i].Lo:blocks[i].Hi], payScratch[blocks[i].Lo:blocks[i].Hi])
		}
	})
	if shift > 0 {
		sortBuckets(cs, pay, &pos, shift-8, p)
	}
}

// EncodeIntoPar is EncodeInto with the coder map fanned over the pool in
// contiguous chunks. The pure-plane identity alias and the
// capacity-reuse contract are unchanged.
func EncodeIntoPar[K any](coder keycoder.Coder[K], keys []K, dst []Code, p *par.Pool) []Code {
	if cs, ok := any(keys).([]Code); ok {
		return cs
	}
	if p.Workers() == 1 || len(keys) < parCutoff {
		return EncodeInto(coder, keys, dst)
	}
	if cap(dst) < len(keys) {
		dst = make([]Code, len(keys))
	}
	dst = dst[:len(keys)]
	blocks := par.Blocks(len(keys), p.Workers())
	p.Do(len(blocks), func(i int) {
		for j := blocks[i].Lo; j < blocks[i].Hi; j++ {
			dst[j] = Code(coder.Encode(keys[j]))
		}
	})
	return dst
}

// DecodeSlicePar is DecodeSlice with the decode map fanned over the
// pool. The pure-plane identity alias is unchanged.
func DecodeSlicePar[K any](coder keycoder.Coder[K], cs []Code, p *par.Pool) []K {
	if ks, ok := any(cs).([]K); ok {
		return ks
	}
	if p.Workers() == 1 || len(cs) < parCutoff {
		return DecodeSlice(coder, cs)
	}
	out := make([]K, len(cs))
	blocks := par.Blocks(len(cs), p.Workers())
	p.Do(len(blocks), func(i int) {
		for j := blocks[i].Lo; j < blocks[i].Hi; j++ {
			out[j] = coder.Decode(uint64(cs[j]))
		}
	})
	return out
}

// ExtractPar is Extract with the extractor map fanned over the pool. The
// pure-plane identity alias is unchanged.
func ExtractPar[E any](elems []E, code func(E) uint64, p *par.Pool) []Code {
	if cs, ok := any(elems).([]Code); ok {
		return cs
	}
	if p.Workers() == 1 || len(elems) < parCutoff {
		return Extract(elems, code)
	}
	out := make([]Code, len(elems))
	blocks := par.Blocks(len(elems), p.Workers())
	p.Do(len(blocks), func(i int) {
		for j := blocks[i].Lo; j < blocks[i].Hi; j++ {
			out[j] = Code(code(elems[j]))
		}
	})
	return out
}
