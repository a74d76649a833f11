package keycoder

import "math"

// signBit is the most significant bit of a 64-bit word.
const signBit = uint64(1) << 63

// Coder is an order-preserving bijection between keys of type K and uint64
// code points. Implementations must be stateless and safe for concurrent
// use.
type Coder[K any] interface {
	// Encode maps a key to its code point.
	Encode(K) uint64
	// Decode inverts Encode.
	Decode(uint64) K
	// EncodeAll writes Encode(ks[i]) to dst[i], and DecodeAll writes
	// Decode(cs[i]) to dst[i]: the whole-slice forms, so a caller coding
	// a shard makes one call per slice, not one interface call per key.
	// The coders here inline Encode and Decode in their loops. On the
	// 8-byte coders (Int64, Uint64 and Float64) dst may be the source's
	// own memory viewed as the other type, which codes in place.
	EncodeAll(dst []uint64, ks []K)
	DecodeAll(dst []K, cs []uint64)
}

// Uint64 is the identity coder for uint64 keys.
type Uint64 struct{}

// Encode returns k unchanged.
func (Uint64) Encode(k uint64) uint64 { return k }

// Decode returns c unchanged.
func (Uint64) Decode(c uint64) uint64 { return c }

// EncodeAll copies ks into dst.
func (Uint64) EncodeAll(dst []uint64, ks []uint64) { copy(dst, ks) }

// DecodeAll copies cs into dst.
func (Uint64) DecodeAll(dst []uint64, cs []uint64) { copy(dst, cs) }

// Int64 encodes signed 64-bit keys by flipping the sign bit, which maps the
// signed order onto the unsigned order.
type Int64 struct{}

// Encode maps an int64 to a uint64 preserving order.
func (Int64) Encode(k int64) uint64 { return uint64(k) ^ signBit }

// Decode inverts Encode.
func (Int64) Decode(c uint64) int64 { return int64(c ^ signBit) }

// EncodeAll writes the code of ks[i] to dst[i].
func (c Int64) EncodeAll(dst []uint64, ks []int64) {
	dst = dst[:len(ks)]
	for i, k := range ks {
		dst[i] = c.Encode(k)
	}
}

// DecodeAll writes the key of cs[i] to dst[i].
func (c Int64) DecodeAll(dst []int64, cs []uint64) {
	dst = dst[:len(cs)]
	for i, x := range cs {
		dst[i] = c.Decode(x)
	}
}

// Int32 encodes signed 32-bit keys via widening to Int64.
type Int32 struct{}

// Encode maps an int32 to a uint64 preserving order.
func (Int32) Encode(k int32) uint64 { return Int64{}.Encode(int64(k)) }

// Decode inverts Encode.
func (Int32) Decode(c uint64) int32 { return int32(Int64{}.Decode(c)) }

// EncodeAll writes the code of ks[i] to dst[i].
func (c Int32) EncodeAll(dst []uint64, ks []int32) {
	dst = dst[:len(ks)]
	for i, k := range ks {
		dst[i] = c.Encode(k)
	}
}

// DecodeAll writes the key of cs[i] to dst[i].
func (c Int32) DecodeAll(dst []int32, cs []uint64) {
	dst = dst[:len(cs)]
	for i, x := range cs {
		dst[i] = c.Decode(x)
	}
}

// Uint32 encodes unsigned 32-bit keys via widening.
type Uint32 struct{}

// Encode maps a uint32 to a uint64 preserving order.
func (Uint32) Encode(k uint32) uint64 { return uint64(k) }

// Decode inverts Encode.
func (Uint32) Decode(c uint64) uint32 { return uint32(c) }

// EncodeAll writes the code of ks[i] to dst[i].
func (c Uint32) EncodeAll(dst []uint64, ks []uint32) {
	dst = dst[:len(ks)]
	for i, k := range ks {
		dst[i] = c.Encode(k)
	}
}

// DecodeAll writes the key of cs[i] to dst[i].
func (c Uint32) DecodeAll(dst []uint32, cs []uint64) {
	dst = dst[:len(cs)]
	for i, x := range cs {
		dst[i] = c.Decode(x)
	}
}

// Float64 encodes IEEE-754 doubles in cmp.Compare order. The standard
// total-order bit trick (negative values have all bits flipped,
// non-negative values have the sign bit set) orders -NaN < -Inf <
// negative < -0 < +0 < positive < +Inf < +NaN; Encode then rotates code
// space down by f64NaNs, the number of positive NaN bit patterns, so the
// +NaN block wraps around to the bottom. Every NaN, of either sign and
// any payload, encodes below -Inf, where cmp.Compare puts it:
//
//	+NaN < -NaN < -Inf < negative < -0 < +0 < positive < +Inf
//
// The mapping is a bijection on bit patterns, so every key round-trips
// bit-exactly. Distinct NaNs, like -0 and +0, compare equal but keep
// distinct codes.
type Float64 struct{}

// f64NaNs is the number of positive float64 NaN bit patterns, 2⁵²−1.
const f64NaNs = 1<<52 - 1

// Encode maps a float64 to a uint64 preserving cmp.Compare order. The
// flip is a mask built from the sign bit, not a branch, so a shard of
// mixed signs does not mispredict on every key.
func (Float64) Encode(k float64) uint64 {
	bits := math.Float64bits(k)
	flip := uint64(int64(bits)>>63) | signBit // all ones if negative, else the sign bit
	return (bits ^ flip) + f64NaNs
}

// Decode inverts Encode.
func (Float64) Decode(c uint64) float64 {
	c -= f64NaNs
	flip := ^uint64(int64(c)>>63) | signBit // the sign bit if it is set, else all ones
	return math.Float64frombits(c ^ flip)
}

// EncodeAll writes the code of ks[i] to dst[i].
func (c Float64) EncodeAll(dst []uint64, ks []float64) {
	dst = dst[:len(ks)]
	for i, k := range ks {
		dst[i] = c.Encode(k)
	}
}

// DecodeAll writes the key of cs[i] to dst[i].
func (c Float64) DecodeAll(dst []float64, cs []uint64) {
	dst = dst[:len(cs)]
	for i, x := range cs {
		dst[i] = c.Decode(x)
	}
}

// Float32 encodes IEEE-754 singles as Float64 encodes doubles: the same
// bit trick and rotation (by f32NaNs) on the 32-bit pattern, widened to
// uint64 (like Int32, the image occupies the low 32 bits of code space,
// so Decode of an arbitrary uint64 truncates).
type Float32 struct{}

// f32SignBit is the most significant bit of a 32-bit word, and f32NaNs
// the number of positive float32 NaN bit patterns, 2²³−1.
const (
	f32SignBit = uint32(1) << 31
	f32NaNs    = 1<<23 - 1
)

// Encode maps a float32 to a uint64 preserving cmp.Compare order, with
// Float64's sign mask.
func (Float32) Encode(k float32) uint64 {
	bits := math.Float32bits(k)
	flip := uint32(int32(bits)>>31) | f32SignBit
	return uint64((bits ^ flip) + f32NaNs)
}

// Decode inverts Encode.
func (Float32) Decode(c uint64) float32 {
	bits := uint32(c) - f32NaNs
	flip := ^uint32(int32(bits)>>31) | f32SignBit
	return math.Float32frombits(bits ^ flip)
}

// EncodeAll writes the code of ks[i] to dst[i].
func (c Float32) EncodeAll(dst []uint64, ks []float32) {
	dst = dst[:len(ks)]
	for i, k := range ks {
		dst[i] = c.Encode(k)
	}
}

// DecodeAll writes the key of cs[i] to dst[i].
func (c Float32) DecodeAll(dst []float32, cs []uint64) {
	dst = dst[:len(cs)]
	for i, x := range cs {
		dst[i] = c.Decode(x)
	}
}
