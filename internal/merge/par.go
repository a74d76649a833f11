package merge

// The merge-tree-per-core plane: split k sorted runs at sub-splitters
// into worker-count contiguous key ranges, merge each range with the
// serial tournament trees on its own core, and concatenate. Sub-splitter
// cuts are lower bounds, so every occurrence of a code value lands in
// exactly one range; within a range every run keeps its index, so the
// run-index tie-break plays out exactly as in the global merge — the
// concatenated output is byte-identical to serial KWay / KWayByCode,
// payload order on the decorated plane included. That identity is what
// the worker-sweep equivalence tests at the repository root pin.
//
// Sub-splitters are picked with the strided-sample histogram refinement
// idiom (cf. brotli's block splitter: seed codes from strided samples,
// histogram the data against them, refine): take strided samples from
// every run in proportion to its length, histogram the deduplicated
// sample set against the runs by exact global rank, then pick for each
// target quantile the sample whose rank lands closest.

import (
	"slices"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// parMergeCutoff is the total key count below which the parallel merges
// hand straight to the serial trees: splitting and forking cost more
// than they save on small inputs.
const parMergeCutoff = 1 << 14

// splitOversample is how many strided samples the sub-splitter picker
// draws per requested part.
const splitOversample = 32

// SplitRuns picks parts-1 sub-splitter codes over the sorted code runs
// and returns, per run, the parts+1 cut offsets of the induced ranges:
// cuts[r][p] to cuts[r][p+1] is run r's slice of part p. Cuts are
// non-decreasing and cover each run exactly, and every cut is the lower
// bound of its splitter, so all occurrences of a code value fall in one
// part — the property that makes per-part merges concatenate into the
// serial merge order. Duplicate-heavy input degrades balance, never
// correctness: a value that outweighs a whole part still cannot be
// split.
func SplitRuns(runs [][]codes.Code, parts int) [][]int {
	return splitRunsFunc(runs, parts, codes.Compare)
}

// splitRunsFunc is SplitRuns for any key type under a comparator.
func splitRunsFunc[K any](runs [][]K, parts int, cmp func(K, K) int) [][]int {
	if parts < 1 {
		parts = 1
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	cuts := make([][]int, len(runs))
	if parts == 1 || total == 0 {
		for r := range runs {
			c := make([]int, parts+1)
			for p := 1; p <= parts; p++ {
				c[p] = len(runs[r])
			}
			cuts[r] = c
		}
		return cuts
	}
	splitters := subSplitters(runs, total, parts, cmp)
	for r, run := range runs {
		c := make([]int, parts+1)
		prev := 0
		for p, s := range splitters {
			prev += lowerBound(run[prev:], s, cmp)
			c[p+1] = prev
		}
		c[parts] = len(run)
		cuts[r] = c
	}
	return cuts
}

// subSplitters picks parts-1 non-decreasing splitter keys by strided
// sampling plus exact-rank refinement.
func subSplitters[K any](runs [][]K, total, parts int, cmp func(K, K) int) []K {
	want := parts * splitOversample
	var samples []K
	for _, run := range runs {
		if len(run) == 0 {
			continue
		}
		cnt := max(1, want*len(run)/total)
		cnt = min(cnt, len(run))
		for i := 0; i < cnt; i++ {
			samples = append(samples, run[(2*i+1)*len(run)/(2*cnt)])
		}
	}
	out := make([]K, parts-1)
	if len(samples) == 0 {
		return out
	}
	slices.SortFunc(samples, cmp)
	samples = slices.CompactFunc(samples, func(a, b K) bool { return cmp(a, b) == 0 })
	// Histogram the sample set against the runs: ranks[i] is sample i's
	// exact global rank (keys strictly below it across all runs).
	ranks := make([]int, len(samples))
	for _, run := range runs {
		prev := 0
		for i, s := range samples {
			prev += lowerBound(run[prev:], s, cmp)
			ranks[i] += prev
		}
	}
	// Refine: for each target quantile take the sample whose exact rank
	// lands closest. The pointer only advances, so splitters come out
	// non-decreasing.
	j := 0
	for p := 1; p < parts; p++ {
		target := p * total / parts
		for j+1 < len(samples) && absDiff(ranks[j+1], target) <= absDiff(ranks[j], target) {
			j++
		}
		out[p-1] = samples[j]
	}
	return out
}

func absDiff(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}

// lowerBound returns the first index in the sorted run whose key is
// >= q.
func lowerBound[K any](run []K, q K, cmp func(K, K) int) int {
	pos, n := 0, len(run)
	for n > 0 {
		half := n >> 1
		if cmp(run[pos+half], q) < 0 {
			pos += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	return pos
}

// ParMerge appends the k-way merge of the sorted runs to dst, fanning
// worker-count sub-ranges over the pool. Output is byte-identical to
// append(dst, KWay(runs, cmp)...) for any worker count.
func ParMerge[K any](dst []K, runs [][]K, cmp func(K, K) int, p *par.Pool) []K {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	parts := p.Workers()
	if total < parMergeCutoff {
		parts = 1
	}
	base := len(dst)
	dst = slices.Grow(dst, total)[:base+total]
	if parts == 1 {
		kwayInto(dst[base:], runs, cmp)
		return dst
	}
	cuts := splitRunsFunc(runs, parts, cmp)
	offs := partOffsets(cuts, parts)
	p.Do(parts, func(pt int) {
		sub := make([][]K, len(runs))
		for r, run := range runs {
			sub[r] = run[cuts[r][pt]:cuts[r][pt+1]]
		}
		kwayInto(dst[base+offs[pt]:base+offs[pt+1]], sub, cmp)
	})
	return dst
}

// ParMergeCoded appends the k-way merge of element runs ordered by their
// parallel code runs to dst — the pre-extracted code-plane ParMerge the
// streaming drain feeds from Rest. Output is byte-identical to the
// serial CodeTree merge for any worker count.
func ParMergeCoded[E any](dst []E, elemRuns [][]E, codeRuns [][]codes.Code, p *par.Pool) []E {
	return ParMergeCodedTie(dst, elemRuns, codeRuns, nil, p)
}

// ParMergeCodedTie is ParMergeCoded for the prefix plane: tie, when
// non-nil, resolves equal-code matches with the comparator. The
// sub-splitter cuts are lower bounds on codes, so an equal-code group
// never splits across parts and the per-part tie merges concatenate
// into the serial tie-merge order.
func ParMergeCodedTie[E any](dst []E, elemRuns [][]E, codeRuns [][]codes.Code, tie func(E, E) int, p *par.Pool) []E {
	total := 0
	for _, r := range codeRuns {
		total += len(r)
	}
	parts := p.Workers()
	if total < parMergeCutoff {
		parts = 1
	}
	base := len(dst)
	dst = slices.Grow(dst, total)[:base+total]
	if parts == 1 {
		kwayCodedInto(dst[base:], elemRuns, codeRuns, nil, tie)
		return dst
	}
	cuts := SplitRuns(codeRuns, parts)
	offs := partOffsets(cuts, parts)
	p.Do(parts, func(pt int) {
		subE := make([][]E, len(elemRuns))
		subC := make([][]codes.Code, len(codeRuns))
		for r := range codeRuns {
			subC[r] = codeRuns[r][cuts[r][pt]:cuts[r][pt+1]]
			subE[r] = elemRuns[r][cuts[r][pt]:cuts[r][pt+1]]
		}
		kwayCodedInto(dst[base+offs[pt]:base+offs[pt+1]], subE, subC, nil, tie)
	})
	return dst
}

// ParMergeByCode appends the k-way merge of the runs ordered by the code
// extractor to dst — KWayByCode fanned over the pool, extraction
// included. Output is byte-identical to the serial merge for any worker
// count.
func ParMergeByCode[K any](dst []K, runs [][]K, code func(K) uint64, p *par.Pool) []K {
	return ParMergeByCodeTie(dst, runs, code, nil, p)
}

// ParMergeByCodeTie is ParMergeByCode for the prefix plane (see
// ParMergeCodedTie).
func ParMergeByCodeTie[K any](dst []K, runs [][]K, code func(K) uint64, tie func(K, K) int, p *par.Pool) []K {
	codeRuns := make([][]codes.Code, len(runs))
	p.Do(len(runs), func(r int) {
		codeRuns[r] = codes.Extract(runs[r], code)
	})
	return ParMergeCodedTie(dst, runs, codeRuns, tie, p)
}

// partOffsets sums per-part sizes across runs into part start offsets.
func partOffsets(cuts [][]int, parts int) []int {
	offs := make([]int, parts+1)
	for pt := 0; pt < parts; pt++ {
		size := 0
		for r := range cuts {
			size += cuts[r][pt+1] - cuts[r][pt]
		}
		offs[pt+1] = offs[pt] + size
	}
	return offs
}

// kwayInto merges the sorted runs into out, which must have exactly the
// runs' total length — KWay writing into caller storage.
func kwayInto[K any](out []K, runs [][]K, cmp func(K, K) int) {
	nonEmpty, last := 0, -1
	for i, r := range runs {
		if len(r) > 0 {
			nonEmpty, last = nonEmpty+1, i
		}
	}
	switch nonEmpty {
	case 0:
		return
	case 1:
		copy(out, runs[last])
		return
	}
	lt := NewLoserTree(runs, cmp)
	for i := range out {
		out[i], _ = lt.Next()
	}
}
