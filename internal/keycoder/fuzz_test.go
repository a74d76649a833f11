package keycoder

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// The tentpole code plane makes every sort depend on these bijections:
// a single order inversion or lossy round trip would silently misplace
// keys across bucket boundaries. The fuzz targets below drive the
// properties with coverage-guided inputs seeded at the known-treacherous
// corners — IEEE-754 negatives, both zeros, subnormals, infinities, NaNs
// of both signs, and the widening paths.

// float64Specials are the corner values every float fuzz run starts
// from, pairwise.
var float64Specials = []float64{
	math.Inf(-1), -math.MaxFloat64, -1.5, -1, -math.SmallestNonzeroFloat64 * 3,
	-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64 * 3, 1, 1.5,
	math.MaxFloat64, math.Inf(1),
}

// float64NaNs are NaNs of both signs, quiet and signaling, with the
// smallest and largest payloads.
var float64NaNs = []uint64{
	0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0xfff0000000000001,
	0x7fffffffffffffff, 0xffffffffffffffff, 0x7ff4000000000abc, 0xfffc000000000abc,
}

// checkCodes holds one pair's codes to cmp.Compare order: strict where
// the keys differ, one code for identical bits, and -0 below +0. Two
// distinct NaNs compare equal and keep distinct codes, in either order;
// every NaN encodes below -Inf.
func checkCodes[F float32 | float64](t *testing.T, enc func(F) uint64, a, b F, sameBits bool) {
	t.Helper()
	ea, eb := enc(a), enc(b)
	switch c := cmp.Compare(a, b); {
	case a != a && ea >= enc(F(math.Inf(-1))):
		t.Fatalf("NaN %g must encode below -Inf: %#x", a, ea)
	case c < 0 && ea >= eb, c > 0 && ea <= eb:
		t.Fatalf("order inverted: cmp(%g, %g) = %d but codes %#x, %#x", a, b, c, ea, eb)
	case c == 0 && sameBits != (ea == eb):
		t.Fatalf("identical bits must share a code, distinct bits must not: %g -> %#x, %g -> %#x", a, ea, b, eb)
	case c == 0 && !sameBits && a == a && math.Signbit(float64(a)) != (ea < eb):
		t.Fatalf("-0 must encode below +0: %#x, %#x", ea, eb)
	}
}

// FuzzFloat64Coder: bit-exact round trip (both zeros, subnormals and
// NaN payloads) and cmp.Compare order. The code order refines the
// comparator's ties: -0 < +0, and distinct NaNs get distinct codes.
func FuzzFloat64Coder(f *testing.F) {
	for _, a := range float64Specials {
		for _, b := range float64Specials {
			f.Add(a, b)
		}
	}
	for i, n := range float64NaNs {
		f.Add(math.Float64frombits(n), float64Specials[i])
		f.Add(math.Float64frombits(n), math.Float64frombits(float64NaNs[(i+1)%len(float64NaNs)]))
	}
	var c Float64
	f.Fuzz(func(t *testing.T, a, b float64) {
		ra := c.Decode(c.Encode(a))
		if math.Float64bits(ra) != math.Float64bits(a) {
			t.Fatalf("round trip not bit-exact: %g (%#x) -> %g (%#x)",
				a, math.Float64bits(a), ra, math.Float64bits(ra))
		}
		checkCodes(t, c.Encode, a, b, math.Float64bits(a) == math.Float64bits(b))
		checkBatch(t, c, []float64{a, b}, math.Float64bits)
	})
}

// FuzzInt64Coder: round trip and strict order across the full signed
// range.
func FuzzInt64Coder(f *testing.F) {
	specials := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range specials {
		for _, b := range specials {
			f.Add(a, b)
		}
	}
	var c Int64
	f.Fuzz(func(t *testing.T, a, b int64) {
		if c.Decode(c.Encode(a)) != a {
			t.Fatalf("round trip lost %d", a)
		}
		if (a < b) != (c.Encode(a) < c.Encode(b)) || (a == b) != (c.Encode(a) == c.Encode(b)) {
			t.Fatalf("order not preserved for (%d, %d)", a, b)
		}
		checkBatch(t, c, []int64{a, b}, func(k int64) uint64 { return uint64(k) })
	})
}

// checkBatch holds an 8-byte coder's EncodeAll and DecodeAll to its
// per-key methods, into fresh arrays and in place, where the destination
// is the source's own memory. Keys compare by their bits.
func checkBatch[K any](t *testing.T, c Coder[K], ks []K, bits func(K) uint64) {
	t.Helper()
	cs := make([]uint64, len(ks))
	c.EncodeAll(cs, ks)
	back := make([]K, len(ks))
	c.DecodeAll(back, cs)
	buf := slices.Clone(ks)
	view := unsafe.Slice((*uint64)(unsafe.Pointer(&buf[0])), len(buf))
	c.EncodeAll(view, buf)
	for i, k := range ks {
		if cs[i] != c.Encode(k) || view[i] != cs[i] {
			t.Fatalf("EncodeAll of key %d: %#x, in place %#x, want %#x", i, cs[i], view[i], c.Encode(k))
		}
	}
	c.DecodeAll(buf, view)
	for i, k := range ks {
		if bits(back[i]) != bits(k) || bits(buf[i]) != bits(k) {
			t.Fatalf("DecodeAll of key %d: bits %#x, in place %#x, want %#x", i, bits(back[i]), bits(buf[i]), bits(k))
		}
	}
}

// FuzzInt32Coder: the widening path must round-trip through the Int64
// encoding without truncation and preserve order and equality.
func FuzzInt32Coder(f *testing.F) {
	specials := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for _, a := range specials {
		for _, b := range specials {
			f.Add(a, b)
		}
	}
	var c Int32
	f.Fuzz(func(t *testing.T, a, b int32) {
		if c.Decode(c.Encode(a)) != a {
			t.Fatalf("round trip lost %d", a)
		}
		// Widening consistency: the Int32 code is the Int64 code of the
		// widened value, so cross-width comparisons stay coherent.
		if c.Encode(a) != (Int64{}).Encode(int64(a)) {
			t.Fatalf("widening diverged for %d", a)
		}
		if (a < b) != (c.Encode(a) < c.Encode(b)) || (a == b) != (c.Encode(a) == c.Encode(b)) {
			t.Fatalf("order not preserved for (%d, %d)", a, b)
		}
	})
}

// FuzzUint32Coder: widening from the unsigned side.
func FuzzUint32Coder(f *testing.F) {
	for _, a := range []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32} {
		f.Add(a, a/2)
	}
	var c Uint32
	f.Fuzz(func(t *testing.T, a, b uint32) {
		if c.Decode(c.Encode(a)) != a {
			t.Fatalf("round trip lost %d", a)
		}
		if (a < b) != (c.Encode(a) < c.Encode(b)) {
			t.Fatalf("order not preserved for (%d, %d)", a, b)
		}
	})
}

// FuzzFloat32Coder: bit-exact round trips and cmp.Compare order on the
// widened single-precision plane, NaNs included, as FuzzFloat64Coder.
func FuzzFloat32Coder(f *testing.F) {
	specials := []float32{float32(math.Inf(-1)), -math.MaxFloat32, -1,
		-math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1)), 0,
		math.SmallestNonzeroFloat32, 1, math.MaxFloat32, float32(math.Inf(1))}
	for _, a := range specials {
		for _, b := range specials {
			f.Add(math.Float32bits(a), math.Float32bits(b))
		}
	}
	nans := []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, 0x7fa00abc, 0xffe00abc}
	for i, n := range nans {
		f.Add(n, math.Float32bits(specials[i]))
		f.Add(n, nans[(i+1)%len(nans)])
	}
	var c Float32
	f.Fuzz(func(t *testing.T, abits, bbits uint32) {
		a, b := math.Float32frombits(abits), math.Float32frombits(bbits)
		if got := c.Decode(c.Encode(a)); math.Float32bits(got) != abits {
			t.Fatalf("round trip lost %g (bits %#x -> %#x)", a, abits, math.Float32bits(got))
		}
		checkCodes(t, c.Encode, a, b, abits == bbits)
	})
}

// TestFloat64SpecialsTotalOrder pins the exact documented order of the
// special values — including the -0 < +0 refinement — as a table test
// that runs without the fuzz engine.
func TestFloat64SpecialsTotalOrder(t *testing.T) {
	var c Float64
	for i := 1; i < len(float64Specials); i++ {
		lo, hi := float64Specials[i-1], float64Specials[i]
		if c.Encode(lo) >= c.Encode(hi) {
			t.Errorf("Encode(%g) = %#x not < Encode(%g) = %#x", lo, c.Encode(lo), hi, c.Encode(hi))
		}
	}
}
