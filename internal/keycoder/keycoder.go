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
}

// Uint64 is the identity coder for uint64 keys.
type Uint64 struct{}

// Encode returns k unchanged.
func (Uint64) Encode(k uint64) uint64 { return k }

// Decode returns c unchanged.
func (Uint64) Decode(c uint64) uint64 { return c }

// Int64 encodes signed 64-bit keys by flipping the sign bit, which maps the
// signed order onto the unsigned order.
type Int64 struct{}

// Encode maps an int64 to a uint64 preserving order.
func (Int64) Encode(k int64) uint64 { return uint64(k) ^ signBit }

// Decode inverts Encode.
func (Int64) Decode(c uint64) int64 { return int64(c ^ signBit) }

// Int32 encodes signed 32-bit keys via widening to Int64.
type Int32 struct{}

// Encode maps an int32 to a uint64 preserving order.
func (Int32) Encode(k int32) uint64 { return Int64{}.Encode(int64(k)) }

// Decode inverts Encode.
func (Int32) Decode(c uint64) int32 { return int32(Int64{}.Decode(c)) }

// Uint32 encodes unsigned 32-bit keys via widening.
type Uint32 struct{}

// Encode maps a uint32 to a uint64 preserving order.
func (Uint32) Encode(k uint32) uint64 { return uint64(k) }

// Decode inverts Encode.
func (Uint32) Decode(c uint64) uint32 { return uint32(c) }

// Float64 encodes IEEE-754 doubles with the standard total-order bit trick:
// negative values have all bits flipped, non-negative values have the sign
// bit set. The encoding orders -Inf < negative < -0 < +0 < positive < +Inf.
// NaN payloads round-trip but their position in the order is unspecified;
// callers sorting float data should filter NaNs first.
type Float64 struct{}

// Encode maps a float64 to a uint64 preserving numeric order.
func (Float64) Encode(k float64) uint64 {
	bits := math.Float64bits(k)
	if bits&signBit != 0 {
		return ^bits
	}
	return bits | signBit
}

// Decode inverts Encode.
func (Float64) Decode(c uint64) float64 {
	if c&signBit != 0 {
		return math.Float64frombits(c ^ signBit)
	}
	return math.Float64frombits(^c)
}

// Float32 encodes IEEE-754 singles with the same total-order bit trick
// as Float64, applied to the 32-bit pattern and widened to uint64 (like
// Int32, the image occupies the low 32 bits of code space, so Decode of
// an arbitrary uint64 truncates). NaN caveats match Float64.
type Float32 struct{}

// f32SignBit is the most significant bit of a 32-bit word.
const f32SignBit = uint32(1) << 31

// Encode maps a float32 to a uint64 preserving numeric order.
func (Float32) Encode(k float32) uint64 {
	bits := math.Float32bits(k)
	if bits&f32SignBit != 0 {
		return uint64(^bits)
	}
	return uint64(bits | f32SignBit)
}

// Decode inverts Encode.
func (Float32) Decode(c uint64) float32 {
	bits := uint32(c)
	if bits&f32SignBit != 0 {
		return math.Float32frombits(bits ^ f32SignBit)
	}
	return math.Float32frombits(^bits)
}
