package spill

import (
	"slices"
	"unsafe"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// LocalSort is the budget-aware local-sort kernel shared by the sort
// pipelines. The shard is the caller's array and already resident, so
// it is always sorted in place and never spilled; the budget only picks
// the kernel by the scratch it needs. On the comparator plane that is
// slices.SortFunc (in place; nil codes returned). On the code plane,
// when m is nil or the shard fits in half the budget, it is the parallel
// radix sort with its shard-sized scatter scratch; over that, the
// scratch-free codes.SortByCodeInPlace. Either way the sorted codes are
// returned and the result is identical. Nothing here can fail, so the
// error is always nil; it is part of the signature the pipelines and
// the benchmark's probe call.
func LocalSort[K any](m *Manager, local []K, code func(K) uint64, cmp func(K, K) int, pool *par.Pool) ([]codes.Code, error) {
	if code == nil {
		slices.SortFunc(local, cmp)
		return nil, nil
	}
	var zero K
	if m != nil && int64(len(local))*int64(unsafe.Sizeof(zero)) > m.Budget()/2 {
		return codes.SortByCodeInPlace(local, code, pool), nil
	}
	return codes.SortByCodePar(local, code, pool), nil
}
