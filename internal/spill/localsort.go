package spill

import (
	"slices"
	"unsafe"

	"hssort/internal/codes"
	"hssort/internal/par"
)

// LocalSort is LocalSortScratch with no scratch to borrow: the scatter
// kernel allocates its own.
func LocalSort[K any](m *Manager, local []K, code func(K) uint64, cmp func(K, K) int, pool *par.Pool) ([]codes.Code, error) {
	return LocalSortScratch(m, local, code, cmp, pool, nil, nil)
}

// KernelHook, when non-nil, is told which code-plane kernel each
// LocalSortScratch call picks: inPlace is true for the scratch-free
// codes.SortByCodeInPlace. Tests set it; it must be safe for concurrent
// calls, since every rank sorts at once.
var KernelHook func(inPlace bool)

// LocalSortScratch is the budget-aware local-sort kernel shared by the
// sort pipelines. The shard is the caller's array and already resident,
// so it is always sorted in place and never spilled; the budget only
// picks the kernel by the scratch it needs. On the comparator plane that
// is slices.SortFunc (in place; nil codes returned). On the pure code
// plane with a spare — caller memory the call has consumed, at least as
// long as the shard — it is the scatter kernel (codes.SortScratch) on
// the spare, which adds no memory, so no budget is consulted. Otherwise,
// when m is nil or the shard plus the scatter kernel's scratch
// (codes.ScratchBytes) fits the budget, it is the scatter kernel
// (codes.SortByCodePar), whose pure-plane scratch comes from tmp(n) when
// tmp is non-nil; over that, the scratch-free codes.SortByCodeInPlace.
// Either way the sorted codes are returned and the result is identical.
// Nothing here can fail, so the error is always nil; it is part of the
// signature the pipelines and the benchmark's probe call.
func LocalSortScratch[K any](m *Manager, local []K, code func(K) uint64, cmp func(K, K) int, pool *par.Pool, tmp func(n int) []codes.Code, spare []codes.Code) ([]codes.Code, error) {
	if code == nil {
		slices.SortFunc(local, cmp)
		return nil, nil
	}
	cs, pure := any(local).([]codes.Code)
	if pure && len(spare) >= len(cs) {
		tellKernel(false)
		codes.SortScratch(cs, spare, pool)
		return cs, nil
	}
	var zero K
	shard := int64(len(local)) * int64(unsafe.Sizeof(zero))
	if m != nil && shard+codes.ScratchBytes[K](len(local), pool) > m.Budget() {
		tellKernel(true)
		return codes.SortByCodeInPlace(local, code, pool), nil
	}
	tellKernel(false)
	if pure && tmp != nil {
		codes.SortScratch(cs, tmp(len(cs)), pool)
		return cs, nil
	}
	return codes.SortByCodePar(local, code, pool), nil
}

// tellKernel reports the kernel choice to KernelHook, if set.
func tellKernel(inPlace bool) {
	if KernelHook != nil {
		KernelHook(inPlace)
	}
}
