package merge

import "hssort/internal/codes"

// CodeTree is the code-plane counterpart of LoserTree: a tournament tree
// over k sorted runs whose order is carried by parallel uint64 code
// slices, so every match in the tree is a raw integer compare — no
// comparator closure, no dynamic call — while arbitrary element payloads
// ride along and are what the tree emits. On the pure code plane the
// element slices simply alias the code slices.
//
// It mirrors LoserTree's full streaming surface (AddRun / Append /
// CloseRun / NextReady / Next / Consumed / Exhausted) with the same
// semantics: ties resolve in favor of the lower run index, open runs
// with drained buffers block NextReady, and fully drained chunks drop
// out of the tree's reach. The steady-state emit path allocates nothing:
// the tournament replay works in the preallocated tree array, and
// rebuild scratch is cached on the tree.
type CodeTree[E any] struct {
	codes [][]codes.Code
	elems [][]E
	pos   []int // next unread index per run (current-chunk-relative)
	// pendC/pendE queue refill chunks per run, consumed front to back,
	// under LoserTree's invariant: a drained run has no pending chunks.
	pendC [][][]codes.Code
	pendE [][][]E
	// consumed counts keys ever emitted per run.
	consumed []int64
	// open marks runs that may still receive Append; starved counts open
	// runs with drained buffers (they block NextReady).
	open    []bool
	starved int
	// tree[1:] holds losers per internal node; tree[0] the winner.
	tree    []int
	winners []int // rebuild scratch, cached to keep build allocation-free
	k       int   // leaf count (power-of-two padded)
	n       int   // real run count
	dirty   bool  // a head changed outside Next: rebuild before next emit
	// tie, when non-nil, resolves equal-code matches with the element
	// comparator before the run-index tie-break — the prefix plane's
	// collision repair. Nil on the bijective and record planes, where
	// equal codes imply cmp-equal elements.
	tie func(E, E) int
}

// NewCodeTree creates an empty code-keyed tree that admits runs via
// AddRun.
func NewCodeTree[E any]() *CodeTree[E] {
	return &CodeTree[E]{k: 2, tree: make([]int, 2), dirty: true}
}

// NewCodeTreeTie creates a CodeTree for the prefix plane: matches whose
// codes collide are resolved by tie (then by run index). The runs must
// be fully tie-ordered themselves (code-sorted, comparator-sorted
// within equal-code spans) for the merge to emit total comparator
// order.
func NewCodeTreeTie[E any](tie func(E, E) int) *CodeTree[E] {
	t := NewCodeTree[E]()
	t.tie = tie
	return t
}

// Reset empties the tree for reuse, dropping all references to run data
// but keeping the tournament arrays allocated (see LoserTree.Reset).
func (t *CodeTree[E]) Reset() {
	clear(t.codes)
	clear(t.elems)
	clear(t.pendC)
	clear(t.pendE)
	t.codes = t.codes[:0]
	t.elems = t.elems[:0]
	t.pos = t.pos[:0]
	t.pendC = t.pendC[:0]
	t.pendE = t.pendE[:0]
	t.consumed = t.consumed[:0]
	t.open = t.open[:0]
	t.n = 0
	t.starved = 0
	t.dirty = true
}

// AddRun registers a new, initially open run holding the given sorted
// codes and their parallel elements (nil for an empty stream) and
// returns its index. len(cs) must equal len(elems).
func (t *CodeTree[E]) AddRun(cs []codes.Code, elems []E) int {
	if len(cs) != len(elems) {
		panic("merge: CodeTree.AddRun code/element length mismatch")
	}
	i := t.n
	t.codes = append(t.codes, cs)
	t.elems = append(t.elems, elems)
	t.pos = append(t.pos, 0)
	t.pendC = append(t.pendC, nil)
	t.pendE = append(t.pendE, nil)
	t.consumed = append(t.consumed, 0)
	t.open = append(t.open, true)
	t.n++
	if len(cs) == 0 {
		t.starved++
	}
	for t.k < t.n {
		t.k *= 2
	}
	if len(t.tree) != t.k {
		t.tree = make([]int, t.k)
	}
	t.dirty = true
	return i
}

// Append feeds more keys to open run i as a new chunk. Codes must
// compare >= everything previously appended to that run; the tree takes
// ownership of both slices.
func (t *CodeTree[E]) Append(i int, cs []codes.Code, elems []E) {
	if !t.open[i] {
		panic("merge: Append to closed run")
	}
	if len(cs) != len(elems) {
		panic("merge: CodeTree.Append code/element length mismatch")
	}
	if len(cs) == 0 {
		return
	}
	if t.pos[i] >= len(t.codes[i]) {
		t.starved--
		t.dirty = true
		t.codes[i] = cs
		t.elems[i] = elems
		t.pos[i] = 0
	} else {
		t.pendC[i] = append(t.pendC[i], cs)
		t.pendE[i] = append(t.pendE[i], elems)
	}
}

// CloseRun seals run i.
func (t *CodeTree[E]) CloseRun(i int) {
	if !t.open[i] {
		return
	}
	t.open[i] = false
	if t.pos[i] >= len(t.codes[i]) {
		t.starved--
	}
}

// Consumed returns the number of keys emitted from run i so far.
func (t *CodeTree[E]) Consumed(i int) int64 { return t.consumed[i] }

// Exhausted reports whether every run is closed and fully emitted.
func (t *CodeTree[E]) Exhausted() bool {
	for i := 0; i < t.n; i++ {
		if t.open[i] || t.pos[i] < len(t.codes[i]) {
			return false
		}
	}
	return true
}

// Rest removes and returns every run's unconsumed elements and their
// parallel codes, one slice pair per run in run-index order — the
// code-plane hand-off to the parallel drain merge (see LoserTree.Rest).
// Every run must be closed; the keys count as consumed and the tree is
// left exhausted.
func (t *CodeTree[E]) Rest() ([][]E, [][]codes.Code) {
	elems := make([][]E, t.n)
	cs := make([][]codes.Code, t.n)
	for i := 0; i < t.n; i++ {
		if t.open[i] {
			panic("merge: Rest with open run")
		}
		tailC := t.codes[i][t.pos[i]:]
		tailE := t.elems[i][t.pos[i]:]
		if len(t.pendC[i]) == 0 {
			cs[i], elems[i] = tailC, tailE
		} else {
			total := len(tailC)
			for _, c := range t.pendC[i] {
				total += len(c)
			}
			bufC := make([]codes.Code, 0, total)
			bufE := make([]E, 0, total)
			bufC = append(bufC, tailC...)
			bufE = append(bufE, tailE...)
			for j := range t.pendC[i] {
				bufC = append(bufC, t.pendC[i][j]...)
				bufE = append(bufE, t.pendE[i][j]...)
			}
			cs[i], elems[i] = bufC, bufE
		}
		t.consumed[i] += int64(len(cs[i]))
		t.codes[i], t.elems[i] = nil, nil
		t.pendC[i], t.pendE[i] = nil, nil
		t.pos[i] = 0
	}
	t.dirty = true
	return elems, cs
}

// NextReady returns the next merged element if emission is safe (no open
// run is drained); distinguish blocked from exhausted with Exhausted.
func (t *CodeTree[E]) NextReady() (e E, ok bool) {
	if t.starved > 0 {
		var zero E
		return zero, false
	}
	return t.Next()
}

// exhausted reports whether run i has no keys left.
func (t *CodeTree[E]) exhausted(i int) bool {
	return i >= t.n || t.pos[i] >= len(t.codes[i])
}

// less reports whether run a's head precedes run b's head: a raw uint64
// compare with run-index tie-break, exhausted runs last.
func (t *CodeTree[E]) less(a, b int) bool {
	ea, eb := t.exhausted(a), t.exhausted(b)
	switch {
	case ea && eb:
		return a < b
	case ea:
		return false
	case eb:
		return true
	}
	ca, cb := t.codes[a][t.pos[a]], t.codes[b][t.pos[b]]
	if ca != cb {
		return ca < cb
	}
	if t.tie != nil {
		if c := t.tie(t.elems[a][t.pos[a]], t.elems[b][t.pos[b]]); c != 0 {
			return c < 0
		}
	}
	return a < b
}

// build replays the initial tournament bottom-up.
func (t *CodeTree[E]) build() {
	if len(t.winners) != 2*t.k {
		t.winners = make([]int, 2*t.k)
	}
	w := t.winners
	for i := 0; i < t.k; i++ {
		w[t.k+i] = i
	}
	for i := t.k - 1; i >= 1; i-- {
		a, b := w[2*i], w[2*i+1]
		if t.less(a, b) {
			w[i] = a
			t.tree[i] = b
		} else {
			w[i] = b
			t.tree[i] = a
		}
	}
	t.tree[0] = w[1]
}

// Next returns the smallest remaining element across all runs, or
// ok=false when every buffer is drained. On a streaming tree prefer
// NextReady.
func (t *CodeTree[E]) Next() (e E, ok bool) {
	if t.dirty {
		t.build()
		t.dirty = false
	}
	w := t.tree[0]
	if t.exhausted(w) {
		var zero E
		return zero, false
	}
	e = t.elems[w][t.pos[w]]
	t.pos[w]++
	t.consumed[w]++
	if t.pos[w] >= len(t.codes[w]) {
		if q := t.pendC[w]; len(q) > 0 {
			t.codes[w] = q[0]
			t.pendC[w] = q[1:]
			t.elems[w] = t.pendE[w][0]
			t.pendE[w] = t.pendE[w][1:]
			t.pos[w] = 0
		} else if t.open[w] {
			t.starved++
		}
	}
	// Replay matches from leaf w up to the root.
	node := (t.k + w) / 2
	winner := w
	for node >= 1 {
		if t.less(t.tree[node], winner) {
			t.tree[node], winner = winner, t.tree[node]
		}
		node /= 2
	}
	t.tree[0] = winner
	return e, true
}

// KWayByCode merges k sorted runs ordered by the given code extractor
// into a single sorted slice, ties resolving in favor of the lower run
// index — KWay's contract, minus the comparator: each run's codes are
// extracted once (zero-copy when the elements already are codes) and the
// merge itself is raw uint64 compares.
func KWayByCode[K any](runs [][]K, code func(K) uint64) []K {
	return KWayByCodeTie(runs, code, nil)
}

// KWayByCodeTie is KWayByCode for the prefix plane: tie, when non-nil,
// resolves equal-code matches with the comparator before the run-index
// tie-break. Each run must itself be tie-ordered (code-sorted,
// comparator-sorted within equal-code spans).
func KWayByCodeTie[K any](runs [][]K, code func(K) uint64, tie func(K, K) int) []K {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]K, total)
	kwayCodedInto(out, runs, nil, code, tie)
	return out
}

// kwayCodedInto is the one body behind every materialized code-keyed
// merge (KWayByCode*, ParMerge*Code*): it merges element runs ordered by
// their parallel code runs into out, which must have exactly the runs'
// total length. codeRuns may be nil, in which case the codes are
// extracted with code once the trivial shapes are out of the way. The
// single-run short-circuit is tie-safe: each run is already fully
// tie-ordered. Many tiny runs go to mergeShortRuns, everything else
// through the tournament tree; both emit the same sequence.
func kwayCodedInto[E any](out []E, elemRuns [][]E, codeRuns [][]codes.Code, code func(E) uint64, tie func(E, E) int) {
	nonEmpty, last := 0, -1
	for i, r := range elemRuns {
		if len(r) > 0 {
			nonEmpty, last = nonEmpty+1, i
		}
	}
	switch nonEmpty {
	case 0:
		return
	case 1:
		copy(out, elemRuns[last])
		return
	}
	if codeRuns == nil {
		codeRuns = make([][]codes.Code, len(elemRuns))
		for i, r := range elemRuns {
			codeRuns[i] = codes.Extract(r, code)
		}
	}
	if shortRuns(nonEmpty, len(out)) {
		mergeShortRuns(out, elemRuns, codeRuns, tie)
		return
	}
	t := NewCodeTreeTie(tie)
	for r := range codeRuns {
		i := t.AddRun(codeRuns[r], elemRuns[r])
		t.CloseRun(i)
	}
	for i := range out {
		out[i], _ = t.Next()
	}
}
