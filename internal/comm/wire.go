package comm

// wire.go implements the serialization layer behind TCPTransport: a
// self-describing binary payload codec plus the frame header both ends
// of a connection agree on. The format is specified in docs/WIRE.md;
// keep the two in sync (and bump wireProtoVersion on any change).
//
// Design constraints, in order:
//
//  1. Every payload the repository's protocols actually send must round
//     trip: key slices of all supported types, code slices, KV record
//     slices, and the small generic protocol structs (stream chunks,
//     gather parts, round plans) — including their unexported fields.
//  2. The data plane must not pay per-element reflection. Slices and
//     structs whose memory holds no pointers are moved as a single bulk
//     copy of their in-memory representation; explicit type switches
//     cover the hottest slice types with no reflection at all.
//  3. Both endpoints run the same binary (enforced by the handshake's
//     protocol version and documented in docs/WIRE.md), so in-memory
//     layout — field order, padding, the 8-byte int — is shared and
//     type names are stable identifiers.
//
// Payloads are framed as
//
//	uvarint(len(typeName)) typeName encodedValue
//
// where typeName is the stable registered name of the payload's concrete
// Go type and a zero-length name denotes a nil payload. The receiver
// resolves the name through the wire registry, so every concrete type
// that crosses a process boundary must be registered on the receiving
// side before it arrives — RegisterWire is idempotent and cheap, and the
// SPMD protocols register at function entry, which is symmetric on both
// ends (see typed.go, internal/exchange, internal/collective).

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// wireProtoVersion is the wire-protocol generation carried in every
// bootstrap handshake. Bump it whenever the frame header, the payload
// encoding, or the bootstrap messages change shape; peers with different
// versions refuse to connect instead of corrupting each other.
//
// Version 2 added the variable-length byte-key payload plane: [][]byte
// moves through a dedicated arena codec (docs/WIRE.md, "Variable-length
// records"). The byte layout of previously existing payloads is
// unchanged, but hsswire/1 peers never registered the byte-key types,
// so the versions must not mix.
//
// Version 3 added liveness and recovery: the heartbeat frame kind, the
// crash fields of the abort payload, the rejoin bootstrap messages and
// the generation field of the table reply. An hsswire/2 peer would
// treat a heartbeat as a protocol error, so the versions must not mix.
//
// Version 4 added incarnations: the incarnation vector of the rejoin
// table reply, the joiner's incarnation on rejoin-data and the crashInc
// field of the abort payload; a rejoin-data is now acked after the peer
// adopted the connection, not before. An hsswire/3 joiner would present
// incarnation 0 and be refused, so the versions must not mix.
//
// Version 5 removed the barrier-enter and barrier-release frame kinds
// (Comm.Barrier is now data frames on a reserved tag) and renumbered
// shutdown and heartbeat to 3 and 4. An hsswire/4 peer would read a
// shutdown as a barrier frame, so the versions must not mix.
//
// Version 6 made bootstrap the join of incarnation 0: register (with a
// rejoin flag) and data (with the dialer's incarnation) replace the
// rejoin and rejoin-data messages, so the versions must not mix.
//
// Version 7 rotated the float key codes (keycoder.Float64, Float32) so
// that every NaN encodes below -Inf. The frame layout is unchanged, but
// a float code slice means different keys to an hsswire/6 peer, so the
// versions must not mix.
const wireProtoVersion = 7

// Frame kinds. A frame is the unit of the TCP transport's framing layer:
// a fixed 25-byte header followed by length payload bytes (see
// docs/WIRE.md for the byte-exact layout).
const (
	// frameData carries one Message: the payload bytes are a
	// self-describing codec value delivered to the destination rank's
	// mailbox.
	frameData = 1 + iota
	// frameAbort propagates an abort latch: payload is a JSON
	// wireAbort. Fenced by generation like data.
	frameAbort
	// frameShutdown announces a graceful close of the sending side;
	// a subsequent EOF from that peer is teardown, not failure.
	frameShutdown
	// frameHeartbeat is a liveness probe: empty payload, consumed by the
	// receiving pump without entering the mailbox, and exempt from
	// generation fencing (liveness is a property of the process, not of
	// any one run). Sent periodically when TCPOptions.PeerTimeout is set.
	frameHeartbeat
)

// frameHeaderLen is the fixed size of the frame header on the wire:
// kind(1) src(4) dst(4) tag(4) gen(4) length(8), little-endian.
const frameHeaderLen = 1 + 4 + 4 + 4 + 4 + 8

// frameHeader is the decoded header of one wire frame.
type frameHeader struct {
	kind byte
	src  uint32
	dst  uint32
	tag  uint32
	gen  uint32
	len  uint64
}

// putFrameHeader encodes h into buf[:frameHeaderLen].
func putFrameHeader(buf []byte, h frameHeader) {
	buf[0] = h.kind
	binary.LittleEndian.PutUint32(buf[1:], h.src)
	binary.LittleEndian.PutUint32(buf[5:], h.dst)
	binary.LittleEndian.PutUint32(buf[9:], h.tag)
	binary.LittleEndian.PutUint32(buf[13:], h.gen)
	binary.LittleEndian.PutUint64(buf[17:], h.len)
}

// parseFrameHeader decodes buf[:frameHeaderLen].
func parseFrameHeader(buf []byte) frameHeader {
	return frameHeader{
		kind: buf[0],
		src:  binary.LittleEndian.Uint32(buf[1:]),
		dst:  binary.LittleEndian.Uint32(buf[5:]),
		tag:  binary.LittleEndian.Uint32(buf[9:]),
		gen:  binary.LittleEndian.Uint32(buf[13:]),
		len:  binary.LittleEndian.Uint64(buf[17:]),
	}
}

// wireAbort is the JSON control payload of a frameAbort: enough to
// reconstruct an error on the receiving process that satisfies the same
// errors.Is identities as the original — in particular cooperative
// cancellation, where every worker process must observe ctx.Err().
type wireAbort struct {
	// Msg is the abort error's text.
	Msg string `json:"msg"`
	// Canceled and Deadline report errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) on the originating side.
	Canceled bool `json:"canceled,omitempty"`
	Deadline bool `json:"deadline,omitempty"`
	// Crash, CrashRank and CrashInc report that the abort was a
	// *PeerCrashError for incarnation CrashInc of CrashRank, so every
	// survivor reconstructs the same typed error (same crashed rank)
	// regardless of which rank detected the death, and a survivor that
	// already adopted the rank's successor can tell the report is old.
	Crash     bool   `json:"crash,omitempty"`
	CrashRank int    `json:"crashRank,omitempty"`
	CrashInc  uint32 `json:"crashInc,omitempty"`
}

// ---------------------------------------------------------------------
// Type registry
// ---------------------------------------------------------------------

// wireRegistry maps stable type names to concrete Go types and back. It
// is process-global: registration anywhere makes the type decodable on
// every transport in the process.
var wireRegistry = struct {
	sync.RWMutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}{
	byName: make(map[string]reflect.Type),
	byType: make(map[reflect.Type]string),
}

// RegisterWire makes T decodable when it arrives over a wire transport
// (TCPTransport). Registration is idempotent and cheap, so protocols
// register at function entry; because the protocols are SPMD, the
// receiving process always executes the same registration before its
// matching Recv. Senders register automatically at encode time — only
// the decode side strictly needs this call. The typed helpers
// (SendValue, RecvSlice, …) register their payload types themselves;
// code that sends a custom type through Endpoint.Send and asserts it
// out of Message.Payload must register it on both ends.
//
// The in-memory transports pass payloads by reference and never consult
// the registry.
func RegisterWire[T any]() {
	registerWireType(reflect.TypeFor[T]())
}

// registerWireType registers t (and returns its stable name), panicking
// on a name collision — two distinct types mapping to one name would
// make decoding ambiguous.
func registerWireType(t reflect.Type) string {
	wireRegistry.RLock()
	name, ok := wireRegistry.byType[t]
	wireRegistry.RUnlock()
	if ok {
		return name
	}
	name = wireTypeName(t)
	wireRegistry.Lock()
	defer wireRegistry.Unlock()
	if prev, ok := wireRegistry.byName[name]; ok && prev != t {
		panic(fmt.Sprintf("comm: wire type name %q is ambiguous: %v and %v", name, prev, t))
	}
	wireRegistry.byName[name] = t
	wireRegistry.byType[t] = name
	return name
}

// lookupWireType resolves a wire name back to the registered type.
func lookupWireType(name string) (reflect.Type, bool) {
	wireRegistry.RLock()
	t, ok := wireRegistry.byName[name]
	wireRegistry.RUnlock()
	return t, ok
}

// wireTypeName builds the stable name a type is registered under: the
// full import path plus type name for named types (generic
// instantiations include their type arguments), structural spelling for
// unnamed composites. Both ends run the same binary, so these names
// identify identical layouts.
func wireTypeName(t reflect.Type) string {
	if n := t.Name(); n != "" {
		if pp := t.PkgPath(); pp != "" {
			return pp + "." + n
		}
		return n // predeclared: int64, string, ...
	}
	switch t.Kind() {
	case reflect.Slice:
		return "[]" + wireTypeName(t.Elem())
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), wireTypeName(t.Elem()))
	case reflect.Pointer:
		return "*" + wireTypeName(t.Elem())
	default:
		// Anonymous structs and the rest: reflect's spelling is
		// deterministic within one binary.
		return t.String()
	}
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

// appendWirePayload appends the self-describing encoding of payload:
// name header plus value bytes. nil payloads encode as an empty name.
func appendWirePayload(buf []byte, payload any) ([]byte, error) {
	if payload == nil {
		return binary.AppendUvarint(buf, 0), nil
	}
	// Hot-path type switch: the bulk data types cross with zero
	// reflection. The byte layout is identical to the reflect path.
	switch s := payload.(type) {
	case []int64:
		return appendRawSlice(buf, "[]int64", sliceToBytes(s), len(s)), nil
	case []uint64:
		return appendRawSlice(buf, "[]uint64", sliceToBytes(s), len(s)), nil
	case []float64:
		return appendRawSlice(buf, "[]float64", sliceToBytes(s), len(s)), nil
	case []int32:
		return appendRawSlice(buf, "[]int32", sliceToBytes(s), len(s)), nil
	case []uint32:
		return appendRawSlice(buf, "[]uint32", sliceToBytes(s), len(s)), nil
	case []float32:
		return appendRawSlice(buf, "[]float32", sliceToBytes(s), len(s)), nil
	case [][]byte:
		buf = appendWireString(buf, "[][]uint8")
		return appendByteSlices(buf, s), nil
	}
	v := reflect.ValueOf(payload)
	name := registerWireType(v.Type())
	buf = appendWireString(buf, name)
	// Work on an addressable copy so unexported struct fields can be
	// reached through their address (reflect.NewAt) instead of being
	// blocked by reflect's read-only flag.
	if !v.CanAddr() {
		pv := reflect.New(v.Type())
		pv.Elem().Set(v)
		v = pv.Elem()
	}
	return appendWireValue(buf, v)
}

// appendRawSlice is the shared fast-path tail: name, length, bulk bytes.
func appendRawSlice(buf []byte, name string, raw []byte, n int) []byte {
	buf = appendWireString(buf, name)
	if raw == nil && n == 0 {
		return binary.AppendUvarint(buf, 0) // nil slice
	}
	buf = binary.AppendUvarint(buf, uint64(n)+1)
	return append(buf, raw...)
}

// sliceToBytes views a fixed-width slice as raw bytes without copying
// (the append above copies once, into the frame buffer). nil-ness is
// preserved so appendRawSlice can encode the nil marker.
func sliceToBytes[T any](s []T) []byte {
	if len(s) == 0 {
		if s == nil {
			return nil
		}
		return []byte{}
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// appendWireString appends a uvarint-length-prefixed string.
func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// byteSlicesType is the reflect image of [][]byte, the variable-length
// record plane's payload shape (wire name "[][]uint8"). Both codec
// walks special-case it — standalone payloads and fields nested inside
// protocol structs (stream chunks, gather parts) alike — so byte keys
// never pay per-element reflection.
var byteSlicesType = reflect.TypeOf([][]byte(nil))

// appendByteSlices appends the varlen-record encoding of s: the
// standard slice framing (uvarint(0) nil / uvarint(n+1)) at both
// levels, element bytes raw. The layout is exactly what the generic
// reflect walk would produce; this path exists to skip reflection and
// to pair with readByteSlices' arena decode.
func appendByteSlices(buf []byte, s [][]byte) []byte {
	if s == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s))+1)
	for _, e := range s {
		if e == nil {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(e))+1)
		buf = append(buf, e...)
	}
	return buf
}

// readByteSlices decodes a varlen-record payload with one arena
// allocation: a first walk validates every length against the remaining
// bytes and sums them, then all element bytes are copied into a single
// backing array and returned as full-capacity-capped views — n keys
// cost two allocations, not n.
func readByteSlices(data []byte) ([][]byte, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("comm: truncated byte-slice count")
	}
	data = data[k:]
	if n == 0 {
		return nil, data, nil
	}
	if n-1 > uint64(len(data)) {
		return nil, nil, fmt.Errorf("comm: byte-slice count %d exceeds remaining %d bytes", n-1, len(data))
	}
	count := int(n - 1)
	lens := make([]int, count)
	total := 0
	p := data
	for i := 0; i < count; i++ {
		m, k := binary.Uvarint(p)
		if k <= 0 {
			return nil, nil, fmt.Errorf("comm: truncated byte-slice length at element %d", i)
		}
		p = p[k:]
		if m == 0 {
			lens[i] = -1 // nil element
			continue
		}
		if m-1 > uint64(len(p)) {
			return nil, nil, fmt.Errorf("comm: byte-slice length %d exceeds remaining %d bytes", m-1, len(p))
		}
		l := int(m - 1)
		lens[i] = l
		total += l
		p = p[l:]
	}
	arena := make([]byte, total)
	out := make([][]byte, count)
	pos := 0
	q := data
	for i := 0; i < count; i++ {
		m, k := binary.Uvarint(q)
		q = q[k:]
		if m == 0 {
			continue // nil element stays nil
		}
		l := lens[i]
		copy(arena[pos:pos+l], q[:l])
		out[i] = arena[pos : pos+l : pos+l]
		pos += l
		q = q[l:]
	}
	return out, p, nil
}

// noPointersCache memoizes whether a type's memory representation is
// pointer-free — the precondition for moving values as one bulk copy.
var noPointersCache sync.Map // reflect.Type -> bool

// typeNoPointers reports whether values of t contain no Go pointers
// anywhere in their direct memory (slices, strings, maps and pointers
// disqualify; padding is fine).
func typeNoPointers(t reflect.Type) bool {
	if v, ok := noPointersCache.Load(t); ok {
		return v.(bool)
	}
	var ok bool
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		ok = true
	case reflect.Array:
		ok = typeNoPointers(t.Elem())
	case reflect.Struct:
		ok = true
		for i := 0; i < t.NumField(); i++ {
			if !typeNoPointers(t.Field(i).Type) {
				ok = false
				break
			}
		}
	default:
		ok = false
	}
	noPointersCache.Store(t, ok)
	return ok
}

// writableField returns struct field i of v with the read-only flag
// cleared, so unexported protocol fields encode and decode like exported
// ones. v must be addressable (the codec keeps every value it walks
// addressable).
func writableField(v reflect.Value, i int) reflect.Value {
	f := v.Field(i)
	if f.CanSet() {
		return f
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// valueBytes views an addressable pointer-free value as its raw memory.
func valueBytes(v reflect.Value) []byte {
	return unsafe.Slice((*byte)(v.Addr().UnsafePointer()), int(v.Type().Size()))
}

// appendWireValue appends the encoding of one addressable value.
//
//   - pointer-free values (primitives, flat structs, arrays): one bulk
//     copy of their in-memory bytes
//   - strings: uvarint length + bytes
//   - slices: uvarint(0) for nil, uvarint(len+1) then elements (bulk
//     copied when the element type is pointer-free)
//   - structs with pointer-bearing fields: fields in order, recursively
func appendWireValue(buf []byte, v reflect.Value) ([]byte, error) {
	t := v.Type()
	if typeNoPointers(t) {
		return append(buf, valueBytes(v)...), nil
	}
	if t == byteSlicesType {
		// Varlen-record fast path, hit by [][]byte fields of protocol
		// structs and by the elements of [][][]byte run lists.
		return appendByteSlices(buf, *(*[][]byte)(v.Addr().UnsafePointer())), nil
	}
	switch v.Kind() {
	case reflect.String:
		return appendWireString(buf, v.String()), nil
	case reflect.Slice:
		if v.IsNil() {
			return binary.AppendUvarint(buf, 0), nil
		}
		n := v.Len()
		buf = binary.AppendUvarint(buf, uint64(n)+1)
		et := t.Elem()
		if typeNoPointers(et) {
			if n == 0 {
				return buf, nil
			}
			raw := unsafe.Slice((*byte)(v.UnsafePointer()), n*int(et.Size()))
			return append(buf, raw...), nil
		}
		var err error
		for i := 0; i < n; i++ {
			if buf, err = appendWireValue(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Struct:
		var err error
		for i := 0; i < t.NumField(); i++ {
			if buf, err = appendWireValue(buf, writableField(v, i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("comm: wire codec cannot encode %v (kind %v)", t, v.Kind())
	}
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

// decodeWirePayload decodes one self-describing payload. It returns the
// reconstructed value (nil for a nil payload) and fails on unknown type
// names or truncated data.
func decodeWirePayload(data []byte) (any, error) {
	name, rest, err := readWireString(data)
	if err != nil {
		return nil, err
	}
	if name == "" {
		if len(rest) != 0 {
			return nil, fmt.Errorf("comm: nil wire payload carries %d trailing bytes", len(rest))
		}
		return nil, nil
	}
	t, ok := lookupWireType(name)
	if !ok {
		return nil, fmt.Errorf("comm: unknown wire type %q (the receiving process must register it with comm.RegisterWire before it arrives)", name)
	}
	v := reflect.New(t).Elem()
	rest, err = readWireValue(rest, v)
	if err != nil {
		return nil, fmt.Errorf("comm: decoding wire payload %q: %w", name, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("comm: wire payload %q carries %d trailing bytes", name, len(rest))
	}
	return v.Interface(), nil
}

// readWireString consumes a uvarint-length-prefixed string.
func readWireString(data []byte) (string, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return "", nil, fmt.Errorf("comm: truncated wire string length")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return "", nil, fmt.Errorf("comm: wire string length %d exceeds remaining %d bytes", n, len(data))
	}
	return string(data[:n]), data[n:], nil
}

// readWireValue decodes one value into v (freshly allocated by the
// caller, hence addressable), returning the remaining bytes.
func readWireValue(data []byte, v reflect.Value) ([]byte, error) {
	t := v.Type()
	if typeNoPointers(t) {
		sz := int(t.Size())
		if len(data) < sz {
			return nil, fmt.Errorf("comm: need %d bytes for %v, have %d", sz, t, len(data))
		}
		copy(valueBytes(v), data[:sz])
		return data[sz:], nil
	}
	if t == byteSlicesType {
		s, rest, err := readByteSlices(data)
		if err != nil {
			return nil, err
		}
		*(*[][]byte)(v.Addr().UnsafePointer()) = s
		return rest, nil
	}
	switch v.Kind() {
	case reflect.String:
		s, rest, err := readWireString(data)
		if err != nil {
			return nil, err
		}
		v.SetString(s)
		return rest, nil
	case reflect.Slice:
		n, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, fmt.Errorf("comm: truncated slice length for %v", t)
		}
		data = data[k:]
		if n == 0 {
			return data, nil // nil slice: leave zero value
		}
		// Every element consumes at least one byte on the wire, so a
		// length beyond the remaining bytes is corruption — reject it
		// before sizing an allocation from it.
		if n-1 > uint64(len(data)) {
			return nil, fmt.Errorf("comm: slice length %d exceeds remaining %d bytes", n-1, len(data))
		}
		length := int(n - 1)
		et := t.Elem()
		if typeNoPointers(et) {
			sz := length * int(et.Size())
			if len(data) < sz {
				return nil, fmt.Errorf("comm: need %d bytes for %v, have %d", sz, t, len(data))
			}
			s := reflect.MakeSlice(t, length, length)
			if length > 0 {
				copy(unsafe.Slice((*byte)(s.UnsafePointer()), sz), data[:sz])
			}
			v.Set(s)
			return data[sz:], nil
		}
		s := reflect.MakeSlice(t, length, length)
		var err error
		for i := 0; i < length; i++ {
			if data, err = readWireValue(data, s.Index(i)); err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return data, nil
	case reflect.Struct:
		var err error
		for i := 0; i < t.NumField(); i++ {
			if data, err = readWireValue(data, writableField(v, i)); err != nil {
				return nil, err
			}
		}
		return data, nil
	default:
		return nil, fmt.Errorf("comm: wire codec cannot decode %v (kind %v)", t, v.Kind())
	}
}

// init pre-registers the predeclared payload types every protocol layer
// uses, so raw Endpoint.Send call sites that move these shapes need no
// registration of their own.
func init() {
	RegisterWire[int]()
	RegisterWire[int32]()
	RegisterWire[int64]()
	RegisterWire[uint32]()
	RegisterWire[uint64]()
	RegisterWire[float32]()
	RegisterWire[float64]()
	RegisterWire[bool]()
	RegisterWire[string]()
	RegisterWire[struct{}]()
	RegisterWire[[]byte]()
	RegisterWire[[][]byte]()
	RegisterWire[[]int]()
	RegisterWire[[]int32]()
	RegisterWire[[]int64]()
	RegisterWire[[]uint32]()
	RegisterWire[[]uint64]()
	RegisterWire[[]float32]()
	RegisterWire[[]float64]()
	RegisterWire[[]string]()
}

// wirePayloadSize returns the encoded size of a payload without
// materializing it twice: used for capacity pre-sizing of frame buffers.
// A precise reservation matters only for the bulk fast paths; the
// reflect path just lets append grow the buffer.
func wirePayloadSize(payload any) int {
	switch s := payload.(type) {
	case nil:
		return 1
	case []int64:
		return 16 + len(s)*8
	case []uint64:
		return 16 + len(s)*8
	case []float64:
		return 16 + len(s)*8
	case []int32:
		return 16 + len(s)*4
	case []uint32:
		return 16 + len(s)*4
	case []float32:
		return 16 + len(s)*4
	case [][]byte:
		n := 16
		for _, e := range s {
			n += 10 + len(e) // uvarint(len+1) worst case + bytes
		}
		return n
	default:
		return 64
	}
}
