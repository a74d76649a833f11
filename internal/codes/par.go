package codes

// The parallel local-sort and codec kernels: the scatter sort of
// scatter.go and the encode/decode maps of codes.go, fanned over a
// bounded par.Pool. SortPar and the parallel tandem plane are the
// scatter kernel on scratch of their own; SortByCodeInPlace runs the
// in-place kernel's top level serially and fans out only its byte
// buckets, for callers that must not allocate shard-sized scratch.
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
// kernels.

import (
	"unsafe"

	"hssort/internal/keycoder"
	"hssort/internal/par"
)

// parCutoff is the input length below which the parallel kernels hand
// straight to their serial counterparts: under ~16k codes the counting
// pass and goroutine fork-join cost more than they save.
const parCutoff = 1 << 14

// SortPar is SortScratch on scratch of its own: the scatter kernel,
// fanned over the pool unless it has one worker or the input is small.
func SortPar(cs []Code, p *par.Pool) {
	if len(cs) <= insertionCutoff {
		insertion(cs)
		return
	}
	SortScratch(cs, make([]Code, len(cs)), p)
}

// SortByCodePar is SortByCode fanned over the pool: parallel extraction,
// then the scatter kernel with the payloads in tow. The pure code plane
// delegates to SortPar; one-worker pools and small inputs fall back to
// the serial in-place kernel.
func SortByCodePar[E any](elems []E, code func(E) uint64, p *par.Pool) []Code {
	if cs, ok := any(elems).([]Code); ok {
		SortPar(cs, p)
		return cs
	}
	if p.Workers() == 1 || len(elems) < parCutoff {
		return SortByCode(elems, code)
	}
	cs := ExtractPar(elems, code, p)
	scatterSort(cs, make([]Code, len(cs)), elems, make([]E, len(elems)), p)
	return cs
}

// ScratchBytes is the memory, in bytes, that SortByCodePar takes beyond
// elems on a pool like p: on the pure plane the scatter scratch, a code
// per key; on a decorated plane the code array it returns, plus — where
// it fans out — the scatter scratch for codes and payloads. A caller
// under a memory budget charges it before picking SortByCodePar over
// SortByCodeInPlace.
func ScratchBytes[E any](n int, p *par.Pool) int64 {
	var zero E
	if _, pure := any(zero).(Code); pure || p.Workers() == 1 || n < parCutoff {
		return int64(n) * 8
	}
	return int64(n) * (16 + int64(unsafe.Sizeof(zero)))
}

// SortByCodeInPlace is SortByCodePar without the shard-sized scratch:
// the top radix level is one serial in-place flagPass instead of the
// parallel count/scatter, and the byte buckets are then sorted in
// place, one pool task each. Beyond the returned code array (which is
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

// EncodeIntoPar is EncodeInto with the coder map fanned over the pool in
// contiguous blocks, one coder call per block. The pure-plane identity
// alias and the capacity-reuse contract are unchanged.
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
		b := blocks[i]
		coder.EncodeAll(words(dst[b.Lo:b.Hi]), keys[b.Lo:b.Hi])
	})
	return dst
}

// DecodeSlicePar is DecodeSlice with the decode map fanned over the
// pool. The pure-plane identity alias is unchanged.
func DecodeSlicePar[K any](coder keycoder.Coder[K], cs []Code, p *par.Pool) []K {
	if ks, ok := any(cs).([]K); ok {
		return ks
	}
	out := make([]K, len(cs))
	decodePar(coder, out, cs, p)
	return out
}

// DecodeInPlace is DecodeSlicePar for a caller that gives cs up. With an
// 8-byte coder (Int64, Uint64, Float64) every key is decoded into its
// own code's slot and cs's memory comes back as the keys — for Uint64,
// whose codes are the keys, with no pass at all; any other coder
// allocates as DecodeSlicePar does. Either way cs must not be read as
// codes afterwards, and the result is never nil.
func DecodeInPlace[K any](coder keycoder.Coder[K], cs []Code, p *par.Pool) []K {
	if len(cs) == 0 {
		return []K{}
	}
	switch any(coder).(type) {
	case keycoder.Uint64:
		return asKeys[K](cs)
	case keycoder.Int64, keycoder.Float64:
		ks := asKeys[K](cs)
		decodePar(coder, ks, cs, p)
		return ks
	}
	return DecodeSlicePar(coder, cs, p)
}

// decodePar decodes cs into dst, fanned over the pool in contiguous
// blocks, one coder call per block.
func decodePar[K any](coder keycoder.Coder[K], dst []K, cs []Code, p *par.Pool) {
	if p.Workers() == 1 || len(cs) < parCutoff {
		coder.DecodeAll(dst, words(cs))
		return
	}
	blocks := par.Blocks(len(cs), p.Workers())
	p.Do(len(blocks), func(i int) {
		b := blocks[i]
		coder.DecodeAll(dst[b.Lo:b.Hi], words(cs[b.Lo:b.Hi]))
	})
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
