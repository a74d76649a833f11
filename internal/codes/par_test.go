package codes

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"hssort/internal/dist"
	"hssort/internal/keycoder"
	"hssort/internal/par"
)

// parInputs yields code arrays big enough to cross parCutoff, in the
// shapes that stress the parallel count/scatter pass: uniform randoms,
// narrow ranges (degenerate top levels), heavy duplicates, all-equal,
// sorted, and reversed.
func parInputs(rng *rand.Rand) [][]Code {
	var out [][]Code
	for _, n := range []int{parCutoff - 1, parCutoff, parCutoff + 123, 100_000} {
		uniform := make([]Code, n)
		narrow := make([]Code, n)
		dup := make([]Code, n)
		equal := make([]Code, n)
		for i := 0; i < n; i++ {
			uniform[i] = Code(rng.Uint64())
			narrow[i] = Code(rng.Uint64N(1000))
			dup[i] = Code(rng.Uint64N(4))
			equal[i] = 42
		}
		asc := slices.Clone(uniform)
		slices.Sort(asc)
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		out = append(out, uniform, narrow, dup, equal, asc, desc)
	}
	return out
}

var parWorkerCounts = []int{1, 2, 3, 8}

func TestSortParMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, in := range parInputs(rng) {
		want := slices.Clone(in)
		Sort(want)
		for _, w := range parWorkerCounts {
			got := slices.Clone(in)
			SortPar(got, par.New(w))
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d n=%d: SortPar diverged from Sort", w, len(in))
			}
		}
	}
}

func TestSortParDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	in := make([]Code, 100_000)
	for i := range in {
		in[i] = Code(rng.Uint64N(512)) // duplicate-heavy, degenerate top bytes
	}
	p := par.New(4)
	first := slices.Clone(in)
	SortPar(first, p)
	for run := 0; run < 3; run++ {
		again := slices.Clone(in)
		SortPar(again, p)
		if !slices.Equal(again, first) {
			t.Fatalf("run %d: SortPar output differs from first run", run)
		}
	}
}

func TestSortByCodeParTandem(t *testing.T) {
	type rec struct {
		k   uint64
		tag int
	}
	rng := rand.New(rand.NewPCG(15, 16))
	n := parCutoff + 777
	elems := make([]rec, n)
	for i := range elems {
		elems[i] = rec{k: rng.Uint64N(64), tag: i} // heavy duplicates
	}
	want := make(map[uint64][]int)
	for _, e := range elems {
		want[e.k] = append(want[e.k], e.tag)
	}
	for _, w := range parWorkerCounts {
		got := slices.Clone(elems)
		cs := SortByCodePar(got, func(r rec) uint64 { return r.k }, par.New(w))
		if !slices.IsSorted(cs) {
			t.Fatalf("workers=%d: codes not sorted", w)
		}
		seen := make(map[uint64][]int)
		for i, e := range got {
			if uint64(cs[i]) != e.k {
				t.Fatalf("workers=%d: code detached from element at %d", w, i)
			}
			seen[e.k] = append(seen[e.k], e.tag)
		}
		for k, tags := range want {
			g := slices.Clone(seen[k])
			slices.Sort(g)
			wantTags := slices.Clone(tags)
			slices.Sort(wantTags)
			if !slices.Equal(g, wantTags) {
				t.Fatalf("workers=%d: payloads for key %d diverged", w, k)
			}
		}
	}
}

func TestSortByCodeParDeterministic(t *testing.T) {
	type rec struct {
		k   uint64
		tag int
	}
	rng := rand.New(rand.NewPCG(17, 18))
	in := make([]rec, parCutoff*2)
	for i := range in {
		in[i] = rec{k: rng.Uint64N(128), tag: i}
	}
	p := par.New(4)
	ext := func(r rec) uint64 { return r.k }
	first := slices.Clone(in)
	SortByCodePar(first, ext, p)
	for run := 0; run < 3; run++ {
		again := slices.Clone(in)
		SortByCodePar(again, ext, p)
		if !slices.Equal(again, first) {
			t.Fatalf("run %d: SortByCodePar payload order differs from first run", run)
		}
	}
}

func TestSortByCodeParIdentityPlane(t *testing.T) {
	cs := make([]Code, parCutoff)
	rng := rand.New(rand.NewPCG(19, 20))
	for i := range cs {
		cs[i] = Code(rng.Uint64())
	}
	got := SortByCodePar(cs, ExtractCode, par.New(4))
	if &got[0] != &cs[0] {
		t.Fatal("pure plane must alias, not copy")
	}
	if !slices.IsSorted(cs) {
		t.Fatal("pure plane not sorted in place")
	}
}

func TestCodecParMatchesSerial(t *testing.T) {
	coder := keycoder.Int64{}
	rng := rand.New(rand.NewPCG(21, 22))
	for _, n := range []int{0, 100, parCutoff, parCutoff * 3} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int64()
		}
		wantCodes := EncodeSlice(coder, keys)
		for _, w := range parWorkerCounts {
			p := par.New(w)
			if got := EncodeIntoPar(coder, keys, nil, p); !slices.Equal(got, wantCodes) {
				t.Fatalf("workers=%d n=%d: EncodeIntoPar diverged", w, n)
			}
			// Capacity reuse: a big-enough dst must be written in place.
			dst := make([]Code, 0, n+10)
			got := EncodeIntoPar(coder, keys, dst, p)
			if n > 0 && &got[0] != &dst[:1][0] {
				t.Fatalf("workers=%d n=%d: EncodeIntoPar ignored dst capacity", w, n)
			}
			if back := DecodeSlicePar(coder, wantCodes, p); !slices.Equal(back, keys) {
				t.Fatalf("workers=%d n=%d: DecodeSlicePar diverged", w, n)
			}
		}
	}
}

func TestExtractParMatchesSerial(t *testing.T) {
	type rec struct{ k uint64 }
	rng := rand.New(rand.NewPCG(23, 24))
	elems := make([]rec, parCutoff+5)
	for i := range elems {
		elems[i] = rec{k: rng.Uint64()}
	}
	ext := func(r rec) uint64 { return r.k }
	want := Extract(elems, ext)
	for _, w := range parWorkerCounts {
		if got := ExtractPar(elems, ext, par.New(w)); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: ExtractPar diverged", w)
		}
	}
	// Pure plane aliases.
	cs := []Code{3, 1, 2}
	if got := ExtractPar(cs, ExtractCode, par.New(4)); &got[0] != &cs[0] {
		t.Fatal("pure plane must alias")
	}
}

// TestSortByCodeInPlaceProperty checks the scratch-free kernel against
// slices.Sort over every input distribution — plus all-equal keys, a
// narrow range (degenerate top radix levels) and zipfian's single hot
// top-byte bucket — at sizes straddling both cutoffs and Workers 1–4:
// the pure plane must equal the sorted codes, the tandem plane must
// come out in code order with every payload still on its code.
func TestSortByCodeInPlaceProperty(t *testing.T) {
	type rec struct {
		k   uint64
		tag int
	}
	recCode := func(r rec) uint64 { return r.k }
	specs := map[string]dist.Spec{
		"allequal": {Kind: dist.DuplicateHeavy, Distinct: 1},
		"narrow":   {Kind: dist.Uniform, Min: 0, Max: 1000},
	}
	for k := dist.Uniform; k <= dist.Staircase; k++ {
		specs[k.String()] = dist.Spec{Kind: k}
	}
	sizes := []int{insertionCutoff - 1, insertionCutoff + 1, parCutoff - 1, parCutoff, parCutoff + 123, 3 * parCutoff}
	for name, spec := range specs {
		for _, n := range sizes {
			input := EncodeSlice(keycoder.Int64{}, spec.Shard(n, 1, 4, uint64(n)))
			want := slices.Clone(input)
			slices.Sort(want)
			recs := make([]rec, n)
			for i, c := range input {
				recs[i] = rec{k: uint64(c), tag: i}
			}
			for workers := 1; workers <= 4; workers++ {
				id := fmt.Sprintf("%s n=%d workers=%d", name, n, workers)
				pool := par.New(workers)

				pure := slices.Clone(input)
				if cs := SortByCodeInPlace(pure, ExtractCode, pool); &cs[0] != &pure[0] || !slices.Equal(pure, want) {
					t.Fatalf("%s: pure plane differs from slices.Sort", id)
				}

				got := slices.Clone(recs)
				cs := SortByCodeInPlace(got, recCode, pool)
				if !slices.Equal(cs, want) {
					t.Fatalf("%s: tandem codes differ from slices.Sort", id)
				}
				for i, r := range got {
					if r.k != uint64(cs[i]) || input[r.tag] != cs[i] {
						t.Fatalf("%s: payload detached from its code at %d", id, i)
					}
				}
				slices.SortFunc(got, func(a, b rec) int { return cmp.Compare(a.tag, b.tag) })
				if !slices.Equal(got, recs) {
					t.Fatalf("%s: payload multiset changed", id)
				}
			}
		}
	}
}
