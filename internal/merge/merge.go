package merge

import (
	"hssort/internal/codes"
	"hssort/internal/par"
)

// Runs appends the k-way merge of the sorted runs to dst — the one
// entry point of every materialized merge. Empty runs are permitted and
// the merge is stable across runs: ties resolve in favor of the lower
// run index.
//
// code, when non-nil, must be an order-preserving extractor for cmp:
// each run's codes are extracted once (zero-copy when the elements
// already are codes) and the merge itself is raw uint64 compares. tie
// marks the extractor as a non-injective prefix (the byte-key plane):
// equal-code matches are then resolved with cmp before the run-index
// tie-break, and each run must itself be tie-ordered (code-sorted,
// cmp-sorted within equal-code spans). With a nil code cmp alone
// carries the order.
//
// A pool with more than one worker splits the runs at sub-splitters and
// merges one key range per core (see RunsCoded); the output is
// byte-identical for any worker count. sc, when non-nil, supplies the
// kernel's scratch, so a caller that keeps one allocates nothing per
// merge beyond dst.
func Runs[K any](dst []K, runs [][]K, cmp func(K, K) int, code func(K) uint64, tie bool, p *par.Pool, sc *Scratch[K]) []K {
	nonEmpty := 0
	for _, r := range runs {
		if len(r) > 0 {
			nonEmpty++
		}
	}
	if code == nil || nonEmpty < 2 { // a lone run is copied: no codes needed
		return RunsCoded(dst, runs, nil, cmp, p, sc)
	}
	codeRuns := make([][]codes.Code, len(runs))
	p.Do(len(runs), func(r int) {
		codeRuns[r] = codes.Extract(runs[r], code)
	})
	if !tie {
		cmp = nil
	}
	return RunsCoded(dst, runs, codeRuns, cmp, p, sc)
}

// KWay merges k sorted runs into a new sorted slice under cmp.
func KWay[K any](runs [][]K, cmp func(K, K) int) []K {
	return Runs([]K{}, runs, cmp, nil, false, nil, nil)
}

// ParMergeByCode appends the merge of the runs ordered by the code
// extractor to dst, fanned over the pool — the spelling of Runs the
// benchmark module's merge probe is pinned to.
func ParMergeByCode[K any](dst []K, runs [][]K, code func(K) uint64, p *par.Pool) []K {
	return Runs(dst, runs, nil, code, false, p, nil)
}
