package codes

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"hssort/internal/keycoder"
	"hssort/internal/par"
)

// TestCodecBatchMatchesPerKey: for each built-in coder, every slice form
// of the codec — EncodeSlice, EncodeInto, EncodeIntoPar, DecodeSlice,
// DecodeSlicePar, DecodeInPlace — equals the per-key Encode and Decode,
// bit for bit, on random keys and on the corners: both zeros, both
// infinities, NaNs of both signs with payloads, and the integer
// extremes. For the 8-byte coders the in-place forms, where the
// destination is the source's own memory, are checked too.
func TestCodecBatchMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	n := 2*parCutoff + 7 // large enough for the parallel forms to fan out
	f64 := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -1.5,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, b := range []uint64{0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001,
		0xfff0000000000001, 0x7fffffffffffffff, 0xffffffffffffffff, 0x7ff4000000000abc, 0xfffc000000000abc} {
		f64 = append(f64, math.Float64frombits(b))
	}
	f32 := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), 1.5, -1.5,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	for _, b := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, 0x7fa00abc, 0xffe00abc} {
		f32 = append(f32, math.Float32frombits(b))
	}
	keys := func(corners []uint64, conv func(uint64) uint64) []uint64 {
		out := slices.Clone(corners)
		for len(out) < n {
			out = append(out, conv(rng.Uint64()))
		}
		return out
	}
	id := func(x uint64) uint64 { return x }
	low32 := func(x uint64) uint64 { return x & math.MaxUint32 }

	t.Run("int64", func(t *testing.T) {
		ks := keys([]uint64{1 << 63, 1<<63 + 1, math.MaxUint64, 0, 1, math.MaxInt64 - 1, math.MaxInt64}, id)
		checkCodec(t, keycoder.Int64{}, as[int64](ks), true)
	})
	t.Run("uint64", func(t *testing.T) {
		ks := keys([]uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64, 1 << 63}, id)
		checkCodec(t, keycoder.Uint64{}, ks, true)
	})
	t.Run("float64", func(t *testing.T) {
		var corners []uint64
		for _, f := range f64 {
			corners = append(corners, math.Float64bits(f))
		}
		checkCodec(t, keycoder.Float64{}, as[float64](keys(corners, id)), true)
	})
	t.Run("int32", func(t *testing.T) {
		ks := keys([]uint64{1 << 31, 1<<31 + 1, math.MaxUint32, 0, 1, math.MaxInt32 - 1, math.MaxInt32}, low32)
		checkCodec(t, keycoder.Int32{}, narrow[int32](ks), false)
	})
	t.Run("uint32", func(t *testing.T) {
		ks := keys([]uint64{0, 1, math.MaxUint32 - 1, math.MaxUint32, 1 << 31}, low32)
		checkCodec(t, keycoder.Uint32{}, narrow[uint32](ks), false)
	})
	t.Run("float32", func(t *testing.T) {
		var corners []uint64
		for _, f := range f32 {
			corners = append(corners, uint64(math.Float32bits(f)))
		}
		checkCodec(t, keycoder.Float32{}, as[float32](narrow[uint32](keys(corners, low32))), false)
	})
}

// as reinterprets a slice's bits as another element type of the same
// width.
func as[T, S any](s []S) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// narrow truncates 64-bit words to a 32-bit type.
func narrow[T ~int32 | ~uint32](s []uint64) []T {
	out := make([]T, len(s))
	for i, x := range s {
		out[i] = T(x)
	}
	return out
}

// checkCodec holds every slice form of coder's codec on keys to the
// per-key methods. Keys compare by their bits, so NaN payloads and the
// sign of zero count.
func checkCodec[K any](t *testing.T, coder keycoder.Coder[K], keys []K, eightBytes bool) {
	t.Helper()
	want := make([]Code, len(keys))
	for i, k := range keys {
		want[i] = Code(coder.Encode(k))
	}
	sameKeys := func(form string, got []K) {
		t.Helper()
		for i := range keys {
			if coder.Encode(got[i]) != uint64(want[i]) || !sameBits(got[i], keys[i]) {
				t.Fatalf("%s: key %d decoded to %v, want %v", form, i, got[i], keys[i])
			}
		}
	}
	for i, k := range keys {
		if !sameBits(coder.Decode(uint64(want[i])), k) {
			t.Fatalf("per-key round trip lost key %d (%v)", i, k)
		}
	}
	if got := EncodeSlice(coder, keys); !slices.Equal(got, want) {
		t.Fatal("EncodeSlice differs from per-key Encode")
	}
	reuse := make([]Code, len(keys)+3)
	if got := EncodeInto(coder, keys, reuse); !slices.Equal(got, want) || &got[0] != &reuse[0] {
		t.Fatal("EncodeInto differs from per-key Encode or ignored dst")
	}
	sameKeys("DecodeSlice", DecodeSlice(coder, want))
	for _, w := range parWorkerCounts {
		p := par.New(w)
		if got := EncodeIntoPar(coder, keys, nil, p); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: EncodeIntoPar differs from per-key Encode", w)
		}
		sameKeys("DecodeSlicePar", DecodeSlicePar(coder, want, p))
		cs := slices.Clone(want)
		got := DecodeInPlace(coder, cs, p)
		sameKeys("DecodeInPlace", got)
		if inPlace := unsafe.Pointer(&got[0]) == unsafe.Pointer(&cs[0]); inPlace != eightBytes {
			t.Fatalf("workers=%d: DecodeInPlace in place = %v, want %v", w, inPlace, eightBytes)
		}
	}
	if got := DecodeInPlace(coder, nil, par.New(1)); got == nil || len(got) != 0 {
		t.Fatalf("DecodeInPlace of no codes = %#v, want empty and non-nil", got)
	}
	if !eightBytes {
		return
	}
	// The batch methods themselves, with the destination the source's
	// own memory in both directions.
	buf := slices.Clone(keys)
	coder.EncodeAll(as[uint64](buf), buf)
	if !slices.Equal(as[Code](buf), want) {
		t.Fatal("EncodeAll in place differs from per-key Encode")
	}
	coder.DecodeAll(buf, as[uint64](buf))
	sameKeys("DecodeAll in place", buf)
}

// sameBits reports whether two keys have the same bit pattern.
func sameBits[K any](a, b K) bool {
	sa := unsafe.Slice((*byte)(unsafe.Pointer(&a)), unsafe.Sizeof(a))
	sb := unsafe.Slice((*byte)(unsafe.Pointer(&b)), unsafe.Sizeof(b))
	return string(sa) == string(sb)
}

// BenchmarkCodec times the code plane's two per-key passes around the
// local sort and merge at 1 Mi keys on one worker: encoding a shard
// into a reused code buffer, and decoding a merged code array in place.
func BenchmarkCodec(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewPCG(41, 42))
	i64 := make([]int64, n)
	f64 := make([]float64, n)
	for i := range i64 {
		i64[i] = rng.Int64() - math.MaxInt64/2
		f64[i] = rng.NormFloat64() // half negative: the sign mask's case
	}
	b.Run("int64/encode", func(b *testing.B) { benchEncode(b, keycoder.Int64{}, i64) })
	b.Run("int64/decode-in-place", func(b *testing.B) { benchDecodeInPlace(b, keycoder.Int64{}, i64) })
	b.Run("float64/encode", func(b *testing.B) { benchEncode(b, keycoder.Float64{}, f64) })
	b.Run("float64/decode-in-place", func(b *testing.B) { benchDecodeInPlace(b, keycoder.Float64{}, f64) })
}

func benchEncode[K any](b *testing.B, coder keycoder.Coder[K], keys []K) {
	dst := make([]Code, len(keys))
	b.SetBytes(int64(len(keys)) * 8)
	for b.Loop() {
		dst = EncodeInto(coder, keys, dst)
	}
}

func benchDecodeInPlace[K any](b *testing.B, coder keycoder.Coder[K], keys []K) {
	enc := EncodeSlice(coder, keys)
	cs := make([]Code, len(enc))
	p := par.New(1)
	b.SetBytes(int64(len(keys)) * 8)
	for b.Loop() {
		b.StopTimer()
		copy(cs, enc)
		b.StartTimer()
		DecodeInPlace(coder, cs, p)
	}
}
