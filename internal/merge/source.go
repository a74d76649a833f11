package merge

import "fmt"

// Source is one sorted run delivered chunk-at-a-time — the abstraction
// that lets the merge take runs that do not live in memory. A
// spilled run file (spill.RunReader) is the motivating implementation:
// every NextChunk reads back one frame, so the merge's working set is a
// frame per run rather than the runs themselves.
type Source[K any] interface {
	// NextChunk returns the run's next chunk of sorted keys, or (nil,
	// nil) when the run is exhausted. The returned slice is owned by the
	// caller until the following NextChunk call.
	NextChunk() ([]K, error)
}

// Budget is the meter the incremental merge charges resident bytes
// against: Acquire when a chunk enters the run queue or a batch takes
// its scratch, Release once the chunk has been fully consumed or the
// batch is merged; Room is what may still be acquired before the budget
// is exceeded (negative once it is). spill.Manager implements it
// (tracking peak resident bytes against Config.MemoryBudget); nil
// disables accounting.
type Budget interface {
	Acquire(bytes int64)
	Release(bytes int64)
	Room() int64
}

// FromSources merges the sorted runs behind srcs through st, appending
// the merged keys to out. It keeps at most one unconsumed chunk per run
// resident: a run is refilled only when the merge has consumed
// everything it appended (the same starvation signal the streaming
// exchange keys its credits on), and each chunk's bytes — and each
// batch's merge scratch, for as long as the batch takes — are charged to
// bud while resident. st must be freshly reset; run indices are
// assigned in srcs order, so duplicate keys tie-break by source index —
// callers get deterministic output by fixing the source order.
func FromSources[K any](st *Streamer[K], srcs []Source[K], bud Budget, out []K, keySize int64) ([]K, error) {
	n := len(srcs)
	st.SetBudget(bud)
	admitted := make([]int64, n) // keys appended to the merge per run
	released := make([]int64, n) // keys whose budget has been returned
	charged := make([]int64, n)  // bytes currently held against bud
	closed := make([]bool, n)
	open := n
	for range srcs {
		st.AddRun(nil)
	}
	for {
		progress := false
		// Refill every starved open run with one chunk; a source that
		// reports exhaustion closes its run instead.
		for i := range srcs {
			if closed[i] || st.Consumed(i) < admitted[i] {
				continue
			}
			keys, err := srcs[i].NextChunk()
			if err != nil {
				return out, err
			}
			if keys == nil {
				st.CloseRun(i)
				closed[i] = true
				open--
			} else {
				if bud != nil {
					b := int64(len(keys)) * keySize
					bud.Acquire(b)
					charged[i] += b
				}
				st.Append(i, keys)
				admitted[i] += int64(len(keys))
			}
			progress = true
		}
		// Emit everything that is provably safe (no open run starved).
		emitted := len(out)
		out = st.DrainReady(out)
		progress = progress || len(out) > emitted
		// Return the budget of consumed keys.
		if bud != nil {
			for i := range srcs {
				if c := st.Consumed(i); c > released[i] {
					b := min((c-released[i])*keySize, charged[i])
					bud.Release(b)
					charged[i] -= b
					released[i] = c
				}
			}
		}
		if open == 0 && st.Exhausted() {
			return out, nil
		}
		if !progress {
			return out, fmt.Errorf("merge: FromSources stalled with %d open runs", open)
		}
	}
}
