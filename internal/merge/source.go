package merge

import "fmt"

// Source is one sorted run delivered chunk-at-a-time — the abstraction
// that lets the merge take runs that do not live in memory. A
// spilled run file (spill.RunReader) is the motivating implementation:
// every NextChunk reads back one frame, so the merge's working set is a
// frame per run rather than the runs themselves.
type Source[K any] interface {
	// NextChunk returns the run's next non-empty chunk of sorted keys,
	// or (nil, nil) when the run is exhausted. The returned slice is
	// owned by the caller until the following NextChunk call.
	NextChunk() ([]K, error)
}

// Budget is the meter a budgeted RunQueue charges resident bytes
// against: Acquire when a chunk is appended or a batch takes its
// scratch, Release as the chunk's keys are consumed or once the batch is
// merged; Room is what may still be acquired before the budget is
// exceeded (negative once it is). spill.Manager implements it (tracking
// peak resident bytes against Config.MemoryBudget); nil disables
// accounting.
type Budget interface {
	Acquire(bytes int64)
	Release(bytes int64)
	Room() int64
}

// Refill feeds open run i the next chunk of src, but only once the run
// has consumed everything appended to it before — so a Source may reuse
// one buffer for every chunk — and closes the run when src is
// exhausted. It returns the number of keys appended, 0 when the run was
// not starved, is closed, or has just been closed.
func (s *Streamer[K]) Refill(i int, src Source[K]) (int, error) {
	s.settle()
	if !s.open[i] || s.pos[i] < len(s.elems[i]) {
		return 0, nil
	}
	keys, err := src.NextChunk()
	if err != nil {
		return 0, err
	}
	if keys == nil {
		s.CloseRun(i)
		return 0, nil
	}
	s.Append(i, keys)
	return len(keys), nil
}

// FromSources merges the sorted runs behind srcs through st under bud,
// appending the merged keys to out; Refill keeps at most one unconsumed
// chunk per run resident. The last argument, bytes per key, is unused:
// st charges a key's in-memory size. st must be freshly reset; run
// indices follow srcs order, so duplicate keys tie-break by source
// index.
func FromSources[K any](st *Streamer[K], srcs []Source[K], bud Budget, out []K, _ int64) ([]K, error) {
	st.SetBudget(bud)
	for range srcs {
		st.AddRun(nil)
	}
	for !st.Exhausted() {
		fed := 0
		for i, src := range srcs {
			n, err := st.Refill(i, src)
			if err != nil {
				return out, err
			}
			fed += n
		}
		emitted := len(out)
		if out = st.DrainReady(out); fed == 0 && len(out) == emitted && !st.Exhausted() {
			return out, fmt.Errorf("merge: FromSources stalled with %d open runs", st.Open())
		}
	}
	return out, nil
}
