package codes

import (
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"hssort/internal/keycoder"
)

// Code is an order-preserving uint64 code point for one key: for any two
// keys a, b of the encoded type, cmp(a, b) < 0 ⇔ code(a) < code(b). See
// the package comment for the ordering invariant carried by the named
// type.
type Code uint64

// Compare is the three-way natural-order comparator for code points —
// the Cmp the protocol layers (tracker updates, sample merging, debug
// validation) use when a pipeline runs entirely in code space.
func Compare(a, b Code) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// ExtractCode is the identity code extractor for the pure code plane
// (element type == Code).
func ExtractCode(c Code) uint64 { return uint64(c) }

// EncodeSlice maps keys through the coder into a fresh code array. When
// the keys already are code points it returns the input aliased — the
// zero-copy identity of the pure plane.
func EncodeSlice[K any](coder keycoder.Coder[K], keys []K) []Code {
	if cs, ok := any(keys).([]Code); ok {
		return cs
	}
	out := make([]Code, len(keys))
	coder.EncodeAll(words(out), keys)
	return out
}

// EncodeInto is EncodeSlice writing into dst's storage when its capacity
// suffices (allocating otherwise) — the engine-reuse variant that lets a
// long-lived sorter keep one encode buffer per rank. The identity alias
// of the pure plane still applies; dst is then untouched.
func EncodeInto[K any](coder keycoder.Coder[K], keys []K, dst []Code) []Code {
	if cs, ok := any(keys).([]Code); ok {
		return cs
	}
	if cap(dst) < len(keys) {
		dst = make([]Code, len(keys))
	}
	dst = dst[:len(keys)]
	coder.EncodeAll(words(dst), keys)
	return dst
}

// DecodeSlice inverts EncodeSlice. When the requested key type is Code
// itself it returns the input aliased.
func DecodeSlice[K any](coder keycoder.Coder[K], cs []Code) []K {
	if ks, ok := any(cs).([]K); ok {
		return ks
	}
	out := make([]K, len(cs))
	coder.DecodeAll(out, words(cs))
	return out
}

// words views codes as the uint64s they are.
func words(cs []Code) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.SliceData(cs)), len(cs))
}

// asKeys views codes as keys of a pointer-free 8-byte type.
func asKeys[K any](cs []Code) []K {
	return unsafe.Slice((*K)(unsafe.Pointer(unsafe.SliceData(cs))), len(cs))
}

// Extract maps elements through the code extractor into a fresh code
// array, aliasing when the elements already are code points.
func Extract[E any](elems []E, code func(E) uint64) []Code {
	if cs, ok := any(elems).([]Code); ok {
		return cs
	}
	out := make([]Code, len(elems))
	for i, e := range elems {
		out[i] = Code(code(e))
	}
	return out
}

// Rank returns the number of codes in the sorted slice that are strictly
// below q — the first index whose code is >= q. It is the branch-lean
// binary search behind histogram scans and partition cuts on the code
// plane: the loop body is a single compare-and-select the compiler can
// turn into a conditional move, with no comparator call.
func Rank(sorted []Code, q Code) int {
	pos, n := 0, len(sorted)
	for n > 0 {
		half := n >> 1
		if sorted[pos+half] < q {
			pos += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	return pos
}

// Ranks answers one Rank query per probe, the code-plane form of
// histogram.LocalRanks. probes need not be sorted, but a sorted probe
// list — what every histogramming round broadcasts — is answered by one
// forward pass, each probe's search starting from the previous answer
// (see sweep). Sortedness is checked in O(m); unsorted lists take one
// binary search per probe.
func Ranks(sorted []Code, probes []Code) []int64 {
	out := make([]int64, len(probes))
	if slices.IsSorted(probes) {
		sweep(sorted, probes, out)
		return out
	}
	for i, q := range probes {
		out[i] = int64(Rank(sorted, q))
	}
	return out
}

// Cuts returns, for each splitter code, the index in the sorted code
// array where its bucket boundary falls (the first code >= the
// splitter). Splitter codes must be non-decreasing; they are located by
// the same forward pass as a sorted Ranks list.
func Cuts(sorted []Code, splitters []Code) []int {
	cuts := make([]int, len(splitters))
	sweep(sorted, splitters, cuts)
	return cuts
}

// sweep writes Rank(sorted, probes[i]) to out[i] for non-decreasing
// probes. Each answer is at or after the previous one, so each search
// starts there, shaped by the gap g = n/m it expects to the next answer:
// below 2, one branch-free merge walk whose every step passes one key or
// settles one probe; otherwise rankFrom.
func sweep[T int | int64](sorted, probes []Code, out []T) {
	n, m := len(sorted), len(probes)
	if g := n / max(m, 1); g >= 2 {
		pos := 0
		for i, q := range probes {
			pos = rankFrom(sorted, pos, g, q)
			out[i] = T(pos)
		}
		return
	}
	i, pos := 0, 0
	for i < m && pos < n {
		below := 0
		if sorted[pos] < probes[i] {
			below = 1
		}
		out[i] = T(pos)
		pos += below
		i += 1 - below
	}
	for ; i < m; i++ {
		out[i] = T(n)
	}
}

// gallopGap is the gap from which rankFrom gallops: past 128 keys a
// bracket's binary search beats the block skip (BenchmarkRanks).
const gallopGap = 128

// rankFrom returns Rank(sorted, q) for a q whose rank is at least pos,
// g keys on in expectation. Below gallopGap it skips whole 8-key blocks
// while a block's last key is below q and counts q's block as a sum of
// borrows, with no branch on the codes. A longer gap gallops: it
// brackets the answer in strides of g, doubling, and binary-searches the
// bracket, about log g steps where a cold search takes log n.
func rankFrom(sorted []Code, pos, g int, q Code) int {
	if g < gallopGap {
		for k := 0; k < gallopGap/8 && pos+8 <= len(sorted); k++ {
			if b := (*[8]Code)(sorted[pos:]); b[7] >= q {
				for _, c := range b {
					_, borrow := bits.Sub64(uint64(c), uint64(q), 0)
					pos += int(borrow)
				}
				return pos
			}
			pos += 8
		}
		g = gallopGap
	}
	end := pos + g - 1
	for end < len(sorted) && sorted[end] < q {
		pos, g = end+1, 2*g
		end = pos + g - 1
	}
	return pos + Rank(sorted[pos:min(end, len(sorted))], q)
}

// SearchFrom is the comparator plane's step of a sorted-probe search:
// sort.Search(n, geq) for a geq known to be false below pos. It gallops
// from pos in strides of step, doubling, then calls sort.Search on the
// bracket. A caller locating m sorted probes in n keys passes each
// previous answer as pos and step = max(1, n/m).
func SearchFrom(n, pos, step int, geq func(int) bool) int {
	end := pos + step - 1
	for end < n && !geq(end) {
		pos, step = end+1, 2*step
		end = pos + step - 1
	}
	return pos + sort.Search(min(end, n)-pos, func(k int) bool { return geq(pos + k) })
}
