package merge

// Fixed-argument spellings of Runs and of the streamer constructors that
// only the tests use.

// KWayByCode is KWay ordered by a code extractor instead of a
// comparator.
func KWayByCode[K any](runs [][]K, code func(K) uint64) []K {
	return Runs([]K{}, runs, nil, code, false, nil, nil)
}

// KWayByCodeTie is KWayByCode for the prefix plane: tie, when non-nil,
// resolves equal-code matches before the run-index tie-break.
func KWayByCodeTie[K any](runs [][]K, code func(K) uint64, tie func(K, K) int) []K {
	return Runs([]K{}, runs, tie, code, tie != nil, nil, nil)
}

// NewLoserTree returns a comparator-plane streamer over the given fixed
// (fully materialized, closed) sorted runs.
func NewLoserTree[K any](runs [][]K, cmp func(K, K) int) *Streamer[K] {
	s := NewStreaming(cmp)
	for _, r := range runs {
		s.CloseRun(s.AddRun(r))
	}
	return s
}
