package merge

import "hssort/internal/codes"

// Streamer is a RunQueue fed with keys instead of (codes, elements)
// pairs — the incremental k-way merge the streaming exchange and
// FromSources drive. It embeds the queue, so CloseRun, Consumed,
// Exhausted, DrainReady, NextReady, Next, Rest (whose second result is
// nil on the comparator plane), SetBudget and Reset are the queue's;
// only admission differs: every appended chunk is encoded once (one
// extractor call per key per hop; nothing at all when the keys already
// are codes — chunks then alias straight into the queue), and Refill
// appends a Source's chunks one at a time.
type Streamer[K any] struct {
	*RunQueue[K]
	code func(K) uint64
}

// NewStreamer returns the incremental merge for the key type: ordered
// by raw code compares when the keys are code points (the pure code
// plane) or an extractor is supplied (the record/KV plane; it must be
// order-preserving for cmp), and by cmp otherwise.
func NewStreamer[K any](cmp func(K, K) int, code func(K) uint64) *Streamer[K] {
	return NewStreamerTie(cmp, code, false)
}

// NewStreamerTie is NewStreamer for the prefix plane: when tie is set
// (and a code extractor is in play) equal-code matches are resolved
// with cmp before the run-index tie-break, so prefix collisions across
// runs merge in comparator order. Appended chunks must be tie-ordered
// themselves (code-sorted, cmp-sorted within equal-code spans).
func NewStreamerTie[K any](cmp func(K, K) int, code func(K) uint64, tie bool) *Streamer[K] {
	switch {
	case tie && code != nil:
		return &Streamer[K]{NewCodeTreeTie(cmp), code}
	case code != nil || planeOf[K](true, nil).pure:
		return &Streamer[K]{NewCodeTree[K](), code}
	}
	return NewStreaming(cmp)
}

// NewStreaming creates an empty comparator-plane streamer: no codes,
// cmp alone carries the order.
func NewStreaming[K any](cmp func(K, K) int) *Streamer[K] {
	return &Streamer[K]{RunQueue: &RunQueue[K]{pl: planeOf(false, cmp)}}
}

// extract returns the chunk's codes on the code planes, nil on the
// comparator plane.
func (s *Streamer[K]) extract(keys []K) []codes.Code {
	if !s.pl.coded {
		return nil
	}
	return codes.Extract(keys, s.code)
}

// AddRun registers a new open run of sorted keys and returns its index.
func (s *Streamer[K]) AddRun(keys []K) int { return s.RunQueue.AddRun(s.extract(keys), keys) }

// Append feeds more keys to open run i.
func (s *Streamer[K]) Append(i int, keys []K) { s.RunQueue.Append(i, s.extract(keys), keys) }
