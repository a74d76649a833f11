package comm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The wire codec must round-trip every payload shape the repository's
// protocols send: bulk key slices, generic protocol structs with
// unexported fields, nested slices, strings, and nil — with the decoded
// value owning fresh memory.

// wireStruct mirrors the protocol structs (streamMsg, roundPlan):
// unexported fields, nested slices, bools.
type wireStruct struct {
	runs   [][]int64
	keys   int
	total  int64
	last   bool
	credit int32
}

// wireNested mirrors roundPlan: a struct holding slices of flat structs.
type wireInterval struct {
	Lo    int64
	HasLo bool
	Hi    int64
	HasHi bool
}

type wireNested struct {
	Done      bool
	Intervals []wireInterval
	Splitters []int64
	note      string
}

func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	buf, err := appendWirePayload(nil, payload)
	if err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	got, err := decodeWirePayload(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", payload, err)
	}
	return got
}

func TestWireRoundTripBulkSlices(t *testing.T) {
	RegisterWire[[]int64]()
	cases := []any{
		[]int64{math.MinInt64, -1, 0, 1, math.MaxInt64},
		[]uint64{0, 1, math.MaxUint64},
		[]int32{math.MinInt32, 0, math.MaxInt32},
		[]uint32{0, math.MaxUint32},
		[]float64{math.Inf(-1), -0.0, 0.0, 1.5, math.Inf(1)},
		[]float32{-1.5, 0, float32(math.Inf(1))},
		[]int64{},       // empty, non-nil
		[]int64(nil),    // typed nil
		[]byte{1, 2, 3}, // predeclared byte slice
		[]string{"a", ""},
	}
	for _, c := range cases {
		got := roundTrip(t, c)
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip %T: got %#v, want %#v", c, got, c)
		}
	}
}

func TestWireRoundTripValues(t *testing.T) {
	for _, c := range []any{int(-7), int64(1 << 40), uint64(math.MaxUint64), true, "hello", struct{}{}} {
		got := roundTrip(t, c)
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip %T: got %#v, want %#v", c, got, c)
		}
	}
	if got := roundTrip(t, nil); got != nil {
		t.Errorf("nil payload decoded to %#v", got)
	}
}

func TestWireRoundTripUnexportedStruct(t *testing.T) {
	RegisterWire[wireStruct]()
	in := wireStruct{
		runs:   [][]int64{{3, 1}, nil, {}, {42}},
		keys:   3,
		total:  1 << 50,
		last:   true,
		credit: -2,
	}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("got %#v, want %#v", got, in)
	}
}

func TestWireRoundTripNestedStructSlices(t *testing.T) {
	RegisterWire[wireNested]()
	RegisterWire[[]wireStruct]()
	in := wireNested{
		Done: true,
		Intervals: []wireInterval{
			{Lo: -5, HasLo: true, Hi: 10, HasHi: true},
			{Hi: 3, HasHi: true},
		},
		Splitters: []int64{1, 2, 3},
		note:      "unexported string",
	}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("got %#v, want %#v", got, in)
	}

	// Slices of pointer-bearing structs recurse per element.
	sl := []wireStruct{{keys: 1, runs: [][]int64{{9}}}, {last: true}}
	got2 := roundTrip(t, sl)
	if !reflect.DeepEqual(got2, sl) {
		t.Errorf("got %#v, want %#v", got2, sl)
	}
}

// TestWireDecodeOwnsMemory: mutating the decoded value must not touch
// the sender's buffers (the wire transfer is a real copy, unlike the
// in-memory transports).
func TestWireDecodeOwnsMemory(t *testing.T) {
	in := []int64{1, 2, 3}
	got := roundTrip(t, in).([]int64)
	got[0] = 99
	if in[0] != 1 {
		t.Error("decoded slice aliases the source")
	}
}

// TestWireUnknownTypeError: decoding a type the process never registered
// fails with a actionable error instead of corrupting.
func TestWireUnknownTypeError(t *testing.T) {
	buf := appendWireString(nil, "example.com/nope.Missing")
	if _, err := decodeWirePayload(buf); err == nil {
		t.Fatal("unknown wire type decoded")
	}
}

// TestWireTruncatedData: every truncation point fails cleanly.
func TestWireTruncatedData(t *testing.T) {
	buf, err := appendWirePayload(nil, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeWirePayload(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

// TestWireFrameHeaderRoundTrip pins the 25-byte header layout.
func TestWireFrameHeaderRoundTrip(t *testing.T) {
	h := frameHeader{kind: frameData, src: 3, dst: 7, tag: 0xdeadbeef, gen: 42, len: 1 << 33}
	var buf [frameHeaderLen]byte
	putFrameHeader(buf[:], h)
	if got := parseFrameHeader(buf[:]); got != h {
		t.Errorf("header round trip: got %+v, want %+v", got, h)
	}
}

// TestWireFastPathMatchesReflectPath: the type-switch encoding of the
// bulk slices must be byte-identical to the generic path, since decode
// is shared.
func TestWireFastPathMatchesReflectPath(t *testing.T) {
	in := []int64{5, -6, 7}
	fast, err := appendWirePayload(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	// Defeat the type switch by hiding the slice in a struct.
	type box struct{ S []int64 }
	RegisterWire[box]()
	boxed, err := appendWirePayload(nil, box{S: in})
	if err != nil {
		t.Fatal(err)
	}
	// The boxed encoding is name("…box") + slice encoding; the fast one
	// is name("[]int64") + slice encoding. Compare the tails.
	tail := func(b []byte) []byte {
		_, rest, err := readWireString(b)
		if err != nil {
			t.Fatal(err)
		}
		return rest
	}
	if !reflect.DeepEqual(tail(fast), tail(boxed)) {
		t.Errorf("fast-path bytes %v != reflect-path bytes %v", tail(fast), tail(boxed))
	}
}

// TestWireDocInSync: docs/WIRE.md describes the protocol wire.go
// speaks, hsswire/7. Every protocol identifier in it is the current hsswire/N —
// except a parenthesized "(hsswire/N)", which dates a feature in the
// version history — and its frame-kind table lists exactly the kinds
// wire.go declares, with the numbers this test pins.
func TestWireDocInSync(t *testing.T) {
	raw, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if protoID != "hsswire/7" {
		t.Errorf("the protocol is %s, want hsswire/7 (float codes put NaN below -Inf)", protoID)
	}
	current := 0
	for _, m := range regexp.MustCompile(`(\(?)hsswire/(\d+)(\)?)`).FindAllStringSubmatch(doc, -1) {
		switch {
		case m[1] == "(" && m[3] == ")":
			// Version history: "(hsswire/3)" dates a feature.
		case "hsswire/"+m[2] != protoID:
			t.Errorf("docs/WIRE.md names %s, the protocol is %s", strings.Trim(m[0], "()"), protoID)
		default:
			current++
		}
	}
	if current == 0 {
		t.Errorf("docs/WIRE.md never names the current protocol %s", protoID)
	}

	want := map[string]int{"data": 1, "abort": 2, "shutdown": 3, "heartbeat": 4}
	code := map[string]int{"data": frameData, "abort": frameAbort, "shutdown": frameShutdown, "heartbeat": frameHeartbeat}
	if !reflect.DeepEqual(code, want) {
		t.Errorf("wire.go numbers the frame kinds %v, want %v", code, want)
	}
	// Every frame-kind constant wire.go declares must be pinned above.
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, spec := range g.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					kind, ok := strings.CutPrefix(n.Name, "frame")
					if !ok || kind == "HeaderLen" {
						continue
					}
					if _, ok := want[strings.ToLower(kind)]; !ok {
						t.Errorf("wire.go declares frame kind %s, which this test does not pin", n.Name)
					}
				}
			}
		}
	}

	i := strings.Index(doc, "Frame kinds:")
	if i < 0 {
		t.Fatal("docs/WIRE.md has no frame-kind table")
	}
	section := doc[i:]
	if j := strings.Index(section, "\n## "); j >= 0 {
		section = section[:j]
	}
	documented := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\|\\s*(\\d+)\\s*\\|\\s*`([a-z-]+)`").FindAllStringSubmatch(section, -1) {
		documented[m[2]], _ = strconv.Atoi(m[1])
	}
	if !reflect.DeepEqual(documented, want) {
		t.Errorf("docs/WIRE.md's frame-kind table lists %v, wire.go defines %v", documented, want)
	}
}
