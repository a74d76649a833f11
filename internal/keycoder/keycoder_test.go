package keycoder

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInt64RoundTrip(t *testing.T) {
	f := func(k int64) bool {
		return Int64{}.Decode(Int64{}.Encode(k)) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64Monotonic(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := Int64{}.Encode(a), Int64{}.Encode(b)
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64Extremes(t *testing.T) {
	cases := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for i := 1; i < len(cases); i++ {
		lo := Int64{}.Encode(cases[i-1])
		hi := Int64{}.Encode(cases[i])
		if lo >= hi {
			t.Errorf("Encode(%d)=%d not < Encode(%d)=%d", cases[i-1], lo, cases[i], hi)
		}
	}
}

func TestUint64Identity(t *testing.T) {
	f := func(k uint64) bool {
		return Uint64{}.Encode(k) == k && Uint64{}.Decode(k) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt32RoundTripAndOrder(t *testing.T) {
	var c Int32
	f := func(a, b int32) bool {
		if c.Decode(c.Encode(a)) != a {
			return false
		}
		return (a < b) == (c.Encode(a) < c.Encode(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint32RoundTripAndOrder(t *testing.T) {
	var c Uint32
	f := func(a, b uint32) bool {
		if c.Decode(c.Encode(a)) != a {
			return false
		}
		return (a < b) == (c.Encode(a) < c.Encode(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	f := func(k float64) bool {
		return math.Float64bits(Float64{}.Decode(Float64{}.Encode(k))) == math.Float64bits(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Monotonic(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, eb := Float64{}.Encode(a), Float64{}.Encode(b)
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default: // covers -0 == +0: codes may differ but must stay adjacent in order
			return true
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Extremes(t *testing.T) {
	cases := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for i := 1; i < len(cases); i++ {
		lo := Float64{}.Encode(cases[i-1])
		hi := Float64{}.Encode(cases[i])
		if lo >= hi {
			t.Errorf("Encode(%g) !< Encode(%g)", cases[i-1], cases[i])
		}
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	f := func(k float32) bool {
		return math.Float32bits(Float32{}.Decode(Float32{}.Encode(k))) == math.Float32bits(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32Monotonic(t *testing.T) {
	f := func(a, b float32) bool {
		if a != a || b != b {
			return true
		}
		ea, eb := Float32{}.Encode(a), Float32{}.Encode(b)
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default: // -0 == +0: codes may differ but must stay adjacent in order
			return true
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32Extremes(t *testing.T) {
	cases := []float32{float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
		math.SmallestNonzeroFloat32, 1, math.MaxFloat32, float32(math.Inf(1))}
	for i := 1; i < len(cases); i++ {
		lo := Float32{}.Encode(cases[i-1])
		hi := Float32{}.Encode(cases[i])
		if lo >= hi {
			t.Errorf("Encode(%g) !< Encode(%g)", cases[i-1], cases[i])
		}
	}
}
