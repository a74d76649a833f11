package exchange

// The parallel partition scan: the splitter sequence is cut into
// contiguous sub-ranges, one fork-join task each, and every task chains
// lower-bound searches through its sub-range exactly as the serial scan
// chains through the whole sequence. A cut is the unique lower bound of
// its splitter in the sorted input, so where a search starts cannot
// change a single offset: PartitionPar and PartitionByCodePar are
// bit-identical to their serial forms for every worker count.

import (
	"hssort/internal/codes"
	"hssort/internal/par"
)

// partitionParKeys is the input length below which the partition
// locates its cuts serially: the cut work is O(B log(n/B)), so small
// inputs never repay the fork-join.
const partitionParKeys = 1 << 14

// PartitionPar is Partition with the cut searches fanned over the pool
// in contiguous splitter sub-ranges. Output is identical to Partition
// for any worker count; the returned runs alias the input.
func PartitionPar[K any](sorted []K, splitters []K, cmp func(K, K) int, p *par.Pool) [][]K {
	if p.Workers() == 1 || len(splitters) < 2 || len(sorted) < partitionParKeys {
		return Partition(sorted, splitters, cmp)
	}
	if Debug {
		ValidateSplitters(splitters, cmp)
	}
	cuts := make([]int, len(splitters))
	blocks := par.Blocks(len(splitters), p.Workers())
	p.Do(len(blocks), func(i int) {
		b := blocks[i]
		cutsFunc(sorted, splitters[b.Lo:b.Hi], cmp, cuts[b.Lo:b.Hi])
	})
	return runsAt(sorted, cuts)
}

// PartitionByCodePar is PartitionByCode with the cut searches fanned
// over the pool in contiguous splitter sub-ranges. Output is identical
// to PartitionByCode for any worker count.
func PartitionByCodePar[K any](sorted []K, cs []codes.Code, splitterCodes []codes.Code, p *par.Pool) [][]K {
	if p.Workers() == 1 || len(splitterCodes) < 2 || len(sorted) < partitionParKeys {
		return PartitionByCode(sorted, cs, splitterCodes)
	}
	if len(sorted) != len(cs) {
		panic("exchange: code array length mismatch")
	}
	if Debug {
		ValidateSplitters(splitterCodes, codes.Compare)
	}
	cuts := make([]int, len(splitterCodes))
	blocks := par.Blocks(len(splitterCodes), p.Workers())
	p.Do(len(blocks), func(i int) {
		b := blocks[i]
		copy(cuts[b.Lo:b.Hi], codes.Cuts(cs, splitterCodes[b.Lo:b.Hi]))
	})
	return runsAt(sorted, cuts)
}

// runsAt slices sorted at the non-decreasing cut offsets into
// len(cuts)+1 runs.
func runsAt[K any](sorted []K, cuts []int) [][]K {
	runs := make([][]K, len(cuts)+1)
	prev := 0
	for i, cut := range cuts {
		runs[i] = sorted[prev:cut]
		prev = cut
	}
	runs[len(cuts)] = sorted[prev:]
	return runs
}
