package merge

// The merge-per-core plane: split k sorted runs at sub-splitters into
// worker-count contiguous key ranges, merge each range with the serial
// kernel on its own core, and concatenate. Sub-splitter
// cuts are lower bounds, so every occurrence of a code value lands in
// exactly one range; within a range every run keeps its index, so the
// run-index tie-break plays out exactly as in the global merge — the
// concatenated output is byte-identical to the serial merge, payload
// order on the decorated plane included. That identity is what
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

// parMergeCutoff is the total key count below which the parallel merge
// hands straight to the serial kernel: splitting and forking cost more
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

// RunsCoded appends the k-way merge of element runs ordered by their
// parallel code runs to dst — Runs with the codes already extracted,
// which is how the streaming drain hands over its tail (RunQueue.Rest).
// With nil codeRuns the order is tie's alone; otherwise tie, when
// non-nil, resolves equal-code matches first.
//
// A pool with more than one worker splits the runs at sub-splitters and
// merges each key range on its own core into its own window of dst and
// of the scratch. The cuts are lower bounds, so an equal-code group
// never splits across parts and the output is byte-identical to the
// serial merge for any worker count.
func RunsCoded[E any](dst []E, elemRuns [][]E, codeRuns [][]codes.Code, tie func(E, E) int, p *par.Pool, sc *Scratch[E]) []E {
	total, nonEmpty := 0, 0
	for _, r := range elemRuns {
		total += len(r)
		if len(r) > 0 {
			nonEmpty++
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, total)[:base+total]
	out := dst[base:]
	parts := p.Workers()
	if total < parMergeCutoff || nonEmpty < 2 {
		parts = 1
	}
	if parts == 1 {
		mergeInto(out, nil, elemRuns, codeRuns, tie, sc)
		return dst
	}
	var cuts [][]int
	if codeRuns != nil {
		cuts = SplitRuns(codeRuns, parts)
	} else {
		cuts = splitRunsFunc(elemRuns, parts, tie)
	}
	offs := partOffsets(cuts, parts)
	if sc == nil {
		sc = new(Scratch[E])
	}
	sc.reserve(planeOf(codeRuns != nil, tie), total, nonEmpty)
	p.Do(parts, func(pt int) {
		subE := make([][]E, len(elemRuns))
		var subC [][]codes.Code
		if codeRuns != nil {
			subC = make([][]codes.Code, len(codeRuns))
		}
		for r := range elemRuns {
			subE[r] = elemRuns[r][cuts[r][pt]:cuts[r][pt+1]]
			if subC != nil {
				subC[r] = codeRuns[r][cuts[r][pt]:cuts[r][pt+1]]
			}
		}
		part := sc.carve(offs[pt], offs[pt+1])
		mergeInto(out[offs[pt]:offs[pt+1]], nil, subE, subC, tie, &part)
	})
	return dst
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
