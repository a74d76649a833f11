package codes

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"hssort/internal/dist"
	"hssort/internal/keycoder"
	"hssort/internal/par"
)

// testInputs yields code arrays across the shapes that stress a radix
// sort: sizes straddling the insertion cutoff, duplicates, pre-sorted and
// reversed data, narrow ranges (degenerate top bytes), and full-width
// randoms.
func testInputs(rng *rand.Rand) [][]Code {
	sizes := []int{0, 1, 2, 3, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 257, 1000, 4096}
	var out [][]Code
	for _, n := range sizes {
		uniform := make([]Code, n)
		narrow := make([]Code, n)
		dup := make([]Code, n)
		for i := 0; i < n; i++ {
			uniform[i] = Code(rng.Uint64())
			narrow[i] = Code(rng.Uint64N(1000)) // top 6 bytes identical
			dup[i] = Code(rng.Uint64N(4))
		}
		asc := slices.Clone(uniform)
		slices.Sort(asc)
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		out = append(out, uniform, narrow, dup, asc, desc)
	}
	// High-bit patterns: values straddling the sign bit, as Int64/Float64
	// encodings produce.
	out = append(out, []Code{1 << 63, 0, ^Code(0), 1<<63 - 1, 1 << 63, 42})
	return out
}

func TestSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, in := range testInputs(rng) {
		want := slices.Clone(in)
		slices.Sort(want)
		got := slices.Clone(in)
		Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("Sort diverged from slices.Sort on %d codes", len(in))
		}
	}
}

// scratchInputs adds the shapes the scatter kernel's own decisions turn
// on: where its first digit starts, whether one scatter finishes the
// sort, and whether a level-2 sub-bucket outgrows the insertion cutoff.
func scratchInputs(rng *rand.Rand) [][]Code {
	var out [][]Code
	for _, n := range []int{insertionCutoff - 1, insertionCutoff + 1, 1<<wideBits - 1, 1<<wideBits + 1, 5000, parCutoff + 1} {
		lowByte := make([]Code, n) // highest differing bit below 8: one scatter
		lowBits := make([]Code, n) // only the low 20 bits differ
		sign := make([]Code, n)    // int64 keys around zero straddle the sign bit
		dataBound := make([]Code, n)
		logUniform := make([]Code, n) // a hot low bucket: level-2 sub-buckets over the cutoff
		for i := 0; i < n; i++ {
			lowByte[i] = 0xdead_beef_0000_0000 | Code(rng.Uint64N(256))
			lowBits[i] = 0x0123_4567_8900_0000 | Code(rng.Uint64N(1<<20))
			logUniform[i] = Code(rng.Uint64() >> rng.UintN(64))
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int64N(2001) - 1000
		}
		EncodeInto[int64](keycoder.Int64{}, keys, sign)
		EncodeInto[int64](keycoder.Int64{}, dist.Spec{Kind: dist.Uniform}.Shard(n, 0, 1, uint64(n)), dataBound)
		out = append(out, lowByte, lowBits, sign, dataBound, logUniform)
	}
	return out
}

// skewInputs are the shapes that reach level 1's log-scale digit and
// the kernel's out-of-place recursion: the skewed key distributions,
// encoded as int64 keys, and one hot value over a log-uniform tail, from
// just under logMinKeys up to a full ledger shard.
func skewInputs(rng *rand.Rand) [][]Code {
	var out [][]Code
	for _, n := range []int{logMinKeys - 1, logMinKeys, 100_000, 1 << 20} {
		for _, kind := range []dist.Kind{dist.Zipfian, dist.Exponential, dist.PowerSkew, dist.DuplicateHeavy} {
			out = append(out, EncodeSlice[int64](keycoder.Int64{}, dist.Spec{Kind: kind}.Shard(n, 0, 4, uint64(n))))
		}
		hot := make([]Code, n)
		for i := range hot {
			hot[i] = Code(rng.Uint64() >> rng.UintN(64))
			if i%4 == 0 {
				hot[i] = 1 << 40
			}
		}
		out = append(out, hot)
	}
	return out
}

// TestSortScratchMatchesSlicesSort holds the scatter kernel to
// slices.Sort on every shape the in-place kernels are tested on plus its
// own, at Workers 1–4, with scratch as long as the input and longer, on
// the pure plane and with a payload riding each code.
func TestSortScratchMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	inputs := slices.Concat(testInputs(rng), parInputs(rng), scratchInputs(rng), skewInputs(rng))
	for i, in := range inputs {
		want := slices.Clone(in)
		slices.Sort(want)
		for workers := 1; workers <= 4; workers++ {
			extra := i % 3 * 17 // len(tmp) > len(cs) on two inputs in three
			got := slices.Clone(in)
			tmp := make([]Code, len(in)+extra)
			SortScratch(got, tmp, par.New(workers))
			if !slices.Equal(got, want) {
				t.Fatalf("input %d (n=%d) workers=%d: SortScratch diverged from slices.Sort", i, len(in), workers)
			}
			// Tandem: each payload is its code's complement.
			copy(got, in)
			pay := make([]uint64, len(in))
			for j, c := range in {
				pay[j] = ^uint64(c)
			}
			scatterSort(got, tmp[:len(in)], pay, make([]uint64, len(in)), par.New(workers))
			if !slices.Equal(got, want) {
				t.Fatalf("input %d (n=%d) workers=%d: tandem scatter diverged from slices.Sort", i, len(in), workers)
			}
			for j, c := range got {
				if pay[j] != ^uint64(c) {
					t.Fatalf("input %d (n=%d) workers=%d: payload %d left its code", i, len(in), workers, j)
				}
			}
		}
	}
}

// TestSortScratchAllocs: the serial scatter kernel on a caller's scratch
// allocates nothing, on the two-level path and through the in-place
// finish of an oversized sub-bucket alike.
func TestSortScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	for _, in := range scratchInputs(rng)[20:25] { // the 5000-code shapes
		buf, tmp := make([]Code, len(in)), make([]Code, len(in))
		allocs := testing.AllocsPerRun(10, func() {
			copy(buf, in)
			SortScratch(buf, tmp, nil)
		})
		if allocs != 0 {
			t.Fatalf("serial SortScratch allocated %.1f times per run", allocs)
		}
	}
}

// FuzzSortScratch: codes built from the fuzzer's bytes — each byte is
// one code's varying digit, placed at a fuzzed bit offset over a fuzzed
// constant, the stream tiled with a per-tile offset so short inputs
// still reach level 2 and the parallel path — sort as slices.Sort does.
func FuzzSortScratch(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint8(0), uint64(0), uint16(0), uint8(1))
	f.Add([]byte("radix sort with scratch"), uint8(52), uint64(1<<63), uint16(300), uint8(2))
	f.Add(make([]byte, 64), uint8(7), ^uint64(0), uint16(1000), uint8(3))
	// Codes spanning 48 bits, eight in fifteen with a zero data byte:
	// level 1's linear digit piles those into bucket 0 and the log digit
	// takes over, at 16 Ki codes and more.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 7, 15, 31, 63, 255}, uint8(40), uint64(0), uint16(2000), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8, base uint64, tiles uint16, workers uint8) {
		if len(data) == 0 {
			return
		}
		n := min(len(data)*(int(tiles)+1), 1<<15)
		cs := make([]Code, n)
		for i := range cs {
			tile := Code(i / len(data))
			cs[i] = Code(base) ^ Code(data[i%len(data)])<<(shift%57) ^ tile*0x9e37
		}
		want := slices.Clone(cs)
		slices.Sort(want)
		SortScratch(cs, make([]Code, n), par.New(int(workers%4)+1))
		if !slices.Equal(cs, want) {
			t.Fatalf("n=%d shift=%d: SortScratch diverged from slices.Sort", n, shift%57)
		}
	})
}

func TestSortByCodeTandem(t *testing.T) {
	type rec struct {
		k   uint64
		tag int
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 17, insertionCutoff + 3, 1500} {
		elems := make([]rec, n)
		for i := range elems {
			elems[i] = rec{k: rng.Uint64N(64), tag: i} // heavy duplicates
		}
		want := make(map[uint64][]int)
		for _, e := range elems {
			want[e.k] = append(want[e.k], e.tag)
		}
		cs := SortByCode(elems, func(r rec) uint64 { return r.k })
		if len(cs) != n {
			t.Fatalf("n=%d: %d codes", n, len(cs))
		}
		if !slices.IsSorted(cs) {
			t.Fatalf("n=%d: codes not sorted", n)
		}
		got := make(map[uint64][]int)
		for i, e := range elems {
			if uint64(cs[i]) != e.k {
				t.Fatalf("n=%d: code %d detached from element key %d at %d", n, cs[i], e.k, i)
			}
			if i > 0 && elems[i-1].k > e.k {
				t.Fatalf("n=%d: elements not sorted by key at %d", n, i)
			}
			got[e.k] = append(got[e.k], e.tag)
		}
		// Unstable sort: payloads per key must survive as a multiset.
		for k, tags := range want {
			g := got[k]
			slices.Sort(g)
			slices.Sort(tags)
			if !slices.Equal(g, tags) {
				t.Fatalf("n=%d: payloads for key %d diverged", n, k)
			}
		}
	}
}

func TestSortByCodeIdentityPlane(t *testing.T) {
	cs := []Code{5, 3, 9, 3, 0}
	got := SortByCode(cs, ExtractCode)
	if &got[0] != &cs[0] {
		t.Fatal("identity plane did not sort in place")
	}
	if !slices.IsSorted(cs) {
		t.Fatal("identity plane left codes unsorted")
	}
}

func TestRankMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		cs := make([]Code, n)
		for i := range cs {
			cs[i] = Code(rng.Uint64N(200))
		}
		slices.Sort(cs)
		probes := []Code{0, 1, 99, 100, 199, 200, ^Code(0)}
		for i := 0; i < 50; i++ {
			probes = append(probes, Code(rng.Uint64N(220)))
		}
		for _, q := range probes {
			want := sort.Search(len(cs), func(j int) bool { return cs[j] >= q })
			if got := Rank(cs, q); got != want {
				t.Fatalf("Rank(n=%d, q=%d) = %d, want %d", n, q, got, want)
			}
		}
	}
}

// TestCutsGapRegimes: Cuts searches each splitter from the previous cut
// by a unit walk, block skips or a gallop, by the gap n/B it expects;
// every cut must be sort.Search's, at gaps from under 1 to 10^4 and on
// both sides of the regime edges at 2 and 128.
func TestCutsGapRegimes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	shapes := []struct{ n, b int }{
		{0, 5},       // empty data
		{1000, 0},    // no splitters
		{100, 500},   // B >> n
		{256, 256},   // gap 1: unit walk
		{512, 256},   // gap 2: block skips
		{2000, 92},   // comm_bound's gap
		{12700, 100}, // gap 127
		{12800, 100}, // gap 128: gallop
		{100000, 10}, // gap 10^4
		{10000, 3},
	}
	for _, sh := range shapes {
		for _, span := range []uint64{1 << 20, 64} { // distinct-ish keys, then heavy duplicates
			cs := make([]Code, sh.n)
			for i := range cs {
				cs[i] = Code(rng.Uint64N(span))
			}
			slices.Sort(cs)
			sp := make([]Code, sh.b)
			for i := range sp {
				sp[i] = Code(rng.Uint64N(span + span/8))
			}
			slices.Sort(sp)
			got := Cuts(cs, sp)
			for i, s := range sp {
				want := sort.Search(len(cs), func(j int) bool { return cs[j] >= s })
				if got[i] != want {
					t.Fatalf("n=%d b=%d span=%d: cut[%d] = %d, want %d", sh.n, sh.b, span, i, got[i], want)
				}
			}
		}
	}
}

func TestEncodeDecodeSlices(t *testing.T) {
	keys := []int64{-5, 0, 3, -1 << 62, 1 << 62}
	cs := EncodeSlice[int64](keycoder.Int64{}, keys)
	back := DecodeSlice[int64](keycoder.Int64{}, cs)
	if !slices.Equal(back, keys) {
		t.Fatalf("round trip: %v -> %v", keys, back)
	}
	if !slices.IsSortedFunc(cs, Compare) == slices.IsSorted(keys) {
		t.Fatal("order not preserved")
	}

	// Pure-plane aliasing: encoding/decoding a code slice is zero-copy and
	// never calls the coder.
	pure := []Code{3, 1, 2}
	if enc := EncodeSlice[Code](nil, pure); &enc[0] != &pure[0] {
		t.Fatal("EncodeSlice copied a code slice")
	}
	if dec := DecodeSlice[Code](nil, pure); &dec[0] != &pure[0] {
		t.Fatal("DecodeSlice copied a code slice")
	}
	if ext := Extract(pure, ExtractCode); &ext[0] != &pure[0] {
		t.Fatal("Extract copied a code slice")
	}
}

func TestCompare(t *testing.T) {
	if Compare(1, 2) >= 0 || Compare(2, 1) <= 0 || Compare(7, 7) != 0 {
		t.Fatal("Compare is not a three-way order")
	}
}

func BenchmarkCodeLocalSort(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewPCG(9, 10))
	base := make([]Code, n)
	for i := range base {
		base[i] = Code(rng.Uint64())
	}
	b.Run("radix", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]Code, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, base)
			b.StartTimer()
			Sort(buf)
		}
		b.SetBytes(n * 8)
	})
	// The ledger's key shapes, in place and on a reused scratch: the
	// encoded [0, 2^60) int64 keys of data_bound, whose top byte holds
	// only 16 values, and spill_2x's zipfian.
	for _, kind := range []dist.Kind{dist.Uniform, dist.Zipfian} {
		in := EncodeSlice[int64](keycoder.Int64{}, dist.Spec{Kind: kind}.Shard(n, 0, 4, 1))
		buf, tmp := make([]Code, n), make([]Code, n)
		for _, k := range []struct {
			name string
			sort func()
		}{
			{"inplace", func() { Sort(buf) }},
			{"scratch", func() { SortScratch(buf, tmp, nil) }},
		} {
			b.Run(kind.String()+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(buf, in)
					b.StartTimer()
					k.sort()
				}
				b.SetBytes(n * 8)
			})
		}
	}
	b.Run("comparator", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]Code, n)
		cmp := Compare
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(buf, base)
			b.StartTimer()
			slices.SortFunc(buf, cmp)
		}
		b.SetBytes(n * 8)
	})
}
