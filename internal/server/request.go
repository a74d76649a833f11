package server

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// jobRequest is the POST /v1/jobs body minus its key array, which the
// parser scans straight into the typed payload. The wire names are the
// field names with a lower-case first letter, matched exactly.
type jobRequest struct {
	// Tenant is the submitting tenant; quotas, the plan cache and rank
	// queries are all scoped to it. Required.
	Tenant string
	// Dataset names the dataset for rank queries. Default "default".
	Dataset string
	// KeyType selects the key decoding: int64, uint64, float64 or bytes.
	KeyType string
	// Values optionally carries one opaque payload string per key; the
	// response returns them reordered with their keys. Numeric key
	// types only.
	Values []string
	// TimeoutMs arms a job deadline: past it the sort aborts mid-phase
	// on every rank and the job fails with the deadline error.
	TimeoutMs int64
	// Wait makes the submission block until the job finishes and return
	// the full job document instead of a 202 ticket.
	Wait bool
}

// keyTypes lists the accepted keyType values, in flag-help order.
var keyTypes = []string{"bytes", "float64", "int64", "uint64"}

// tooManyKeysError refuses a job past Config.MaxKeys; the HTTP layer
// maps it to 413.
type tooManyKeysError struct{ limit int }

func (e *tooManyKeysError) Error() string {
	return fmt.Sprintf("job exceeds the %d-key job limit", e.limit)
}

var (
	errTruncated  = errors.New("unexpected end of body")
	errNullKey    = errors.New("null is not a key")
	errNotInteger = errors.New("integer keys take no fraction or exponent")
)

// maxPooledBody keeps one outsized submission from pinning its buffer in
// the pool; bodies above it are left to the collector.
const maxPooledBody = 16 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the request body into buf in one pass, pre-sized from
// Content-Length (capped, so a lying header cannot reserve memory the
// body never fills).
func readBody(buf *bytes.Buffer, r *http.Request) error {
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPooledBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r.Body)
	return err
}

// parseJobRequest walks the top-level object of a POST /v1/jobs body
// once. Scalar members and values go through encoding/json on their own
// few bytes; the key array is scanned by the typed scanner of the
// request's key type straight into the flat slice the payload shards.
// Member names match exactly, unknown members are skipped (but must be
// well-formed), the last duplicate wins. A keys member ahead of keyType
// is skipped structurally and scanned once the object has been walked.
func parseJobRequest(b []byte, shards, maxKeys int) (jobRequest, payload, error) {
	var (
		req       jobRequest
		data      payload
		keysAt    = -1 // offset of the last keys member's value
		scannedAs string
	)
	fail := func(err error) (jobRequest, payload, error) {
		return jobRequest{}, nil, fmt.Errorf("body: %w", err)
	}

	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return fail(errors.New("expected a JSON object"))
	}
	i = skipSpace(b, i+1)
	for first := true; ; first = false {
		if i == len(b) {
			return fail(errTruncated)
		}
		if first && b[i] == '}' {
			i++
			break
		}
		name, end, err := scanName(b, i)
		if err != nil {
			return fail(err)
		}
		i = skipSpace(b, end)
		if i == len(b) || b[i] != ':' {
			return fail(fmt.Errorf("expected ':' after %q at offset %d", name, i))
		}
		i = skipSpace(b, i+1)

		if name == "keys" {
			keysAt, scannedAs = i, req.KeyType
			data, end, err = scanPayload(req.KeyType, b, i, shards, maxKeys)
			if err == nil && data == nil { // key type not known yet
				end, err = skipValue(b, i)
			}
		} else if end, err = skipValue(b, i); err == nil {
			span := b[i:end]
			switch name {
			case "tenant":
				err = json.Unmarshal(span, &req.Tenant)
			case "dataset":
				err = json.Unmarshal(span, &req.Dataset)
			case "keyType":
				err = json.Unmarshal(span, &req.KeyType)
			case "values":
				err = json.Unmarshal(span, &req.Values)
			case "timeoutMs":
				err = json.Unmarshal(span, &req.TimeoutMs)
			case "wait":
				err = json.Unmarshal(span, &req.Wait)
			default:
				if !json.Valid(span) {
					err = errors.New("malformed value")
				}
			}
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}

		i = skipSpace(b, end)
		if i == len(b) {
			return fail(errTruncated)
		}
		if b[i] == '}' {
			i++
			break
		}
		if b[i] != ',' {
			return fail(fmt.Errorf("expected ',' or '}' at offset %d", i))
		}
		i = skipSpace(b, i+1)
	}
	if i = skipSpace(b, i); i != len(b) {
		return fail(fmt.Errorf("trailing bytes after the object at offset %d", i))
	}

	switch {
	case req.Tenant == "":
		return jobRequest{}, nil, errors.New("tenant is required")
	case req.KeyType == "":
		return jobRequest{}, nil, fmt.Errorf("keyType is required (valid values: %s)", strings.Join(keyTypes, ", "))
	case !slices.Contains(keyTypes, req.KeyType):
		return jobRequest{}, nil, fmt.Errorf("unknown key type %q (valid values: %s)", req.KeyType, strings.Join(keyTypes, ", "))
	case keysAt < 0:
		return jobRequest{}, nil, errors.New("keys is required")
	}
	if data == nil || scannedAs != req.KeyType {
		var err error
		if data, _, err = scanPayload(req.KeyType, b, keysAt, shards, maxKeys); err != nil {
			return fail(fmt.Errorf("keys: %w", err))
		}
	}
	if req.Values != nil {
		if err := data.attach(req.Values); err != nil {
			return jobRequest{}, nil, err
		}
	}
	if req.Dataset == "" {
		req.Dataset = "default"
	}
	return req, data, nil
}

// scanPayload scans the key array at b[i:] under key type kt into its
// payload and returns the offset just past the array. An unknown (or
// not yet seen) key type returns a nil payload for the caller to defer.
func scanPayload(kt string, b []byte, i, shards, maxKeys int) (payload, int, error) {
	switch kt {
	case "int64":
		return scanOrdered(int64Keys, b, i, shards, maxKeys)
	case "uint64":
		return scanOrdered(uint64Keys, b, i, shards, maxKeys)
	case "float64":
		return scanOrdered(float64Keys, b, i, shards, maxKeys)
	case "bytes":
		var arena byteArena
		keys, end, err := scanKeys(b, i, maxKeys, arena.scan)
		if err != nil {
			return nil, end, fmt.Errorf("%w (bytes keys are base64 strings)", err)
		}
		return &bytesPayload{shards: shardSlice(keys, shards)}, end, nil
	}
	return nil, i, nil
}

func scanOrdered[K cmp.Ordered](t *orderedType[K], b []byte, i, shards, maxKeys int) (payload, int, error) {
	keys, end, err := scanKeys(b, i, maxKeys, t.scan)
	if err != nil {
		return nil, end, err
	}
	return &orderedPayload[K]{t: t, shards: shardSlice(keys, shards)}, end, nil
}

// scanKeys scans the JSON array at b[i:] element by element with elem
// into a flat slice and returns the offset just past the closing
// bracket. A null in place of the array is the empty array (the
// encoding/json convention); a null element is an error. With
// maxKeys > 0 the scan stops at key maxKeys+1, before parsing it: the
// returned offset is then how far the scanner got.
func scanKeys[K any](b []byte, i, maxKeys int, elem func(b []byte, i int) (K, int, error)) ([]K, int, error) {
	if bytes.HasPrefix(b[i:], []byte("null")) {
		return nil, i + 4, nil
	}
	if i == len(b) || b[i] != '[' {
		return nil, i, fmt.Errorf("expected an array at offset %d", i)
	}
	// In a well-formed key array the first ']' closes it (numbers and
	// base64 strings hold none), so the commas before it count the keys
	// exactly; on anything else this is only a capacity hint.
	hint := 0
	if closing := bytes.IndexByte(b[i:], ']'); closing > 1 {
		hint = bytes.Count(b[i:i+closing], []byte(",")) + 1
	}
	if maxKeys > 0 {
		hint = min(hint, maxKeys)
	}
	keys := make([]K, 0, hint)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return keys, i + 1, nil
	}
	for {
		if maxKeys > 0 && len(keys) == maxKeys {
			return nil, i, &tooManyKeysError{limit: maxKeys}
		}
		k, end, err := elem(b, i)
		if err != nil {
			return nil, i, fmt.Errorf("element %d at offset %d: %w", len(keys), i, err)
		}
		keys = append(keys, k)
		i = end
		if i+1 < len(b) && b[i] == ',' && b[i+1] > ' ' { // the dense form, without a skipSpace call per key
			i++
			continue
		}
		i = skipSpace(b, i)
		switch {
		case i == len(b):
			return nil, i, errTruncated
		case b[i] == ']':
			return keys, i + 1, nil
		case b[i] != ',':
			return nil, i, fmt.Errorf("expected ',' or ']' at offset %d", i)
		}
		i = skipSpace(b, i+1)
	}
}

// notAKey is the error for an element that does not start like want.
func notAKey(b []byte, i int, want string) error {
	if bytes.HasPrefix(b[i:], []byte("null")) {
		return errNullKey
	}
	return fmt.Errorf("expected %s", want)
}

func scanInt64(b []byte, i int) (int64, int, error) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	v, end, err := scanMagnitude(b, i)
	if err != nil {
		return 0, end, err
	}
	if neg {
		if v > 1<<63 {
			return 0, end, strconv.ErrRange
		}
		return int64(-v), end, nil
	}
	if v > math.MaxInt64 {
		return 0, end, strconv.ErrRange
	}
	return int64(v), end, nil
}

func scanUint64(b []byte, i int) (uint64, int, error) {
	if i < len(b) && b[i] == '-' {
		return 0, i, errors.New("negative uint64 key")
	}
	return scanMagnitude(b, i)
}

// scanFloat64 checks the JSON number grammar at b[i:] and hands the
// span to strconv.ParseFloat.
func scanFloat64(b []byte, i int) (float64, int, error) {
	digits := func(j int) int {
		for j < len(b) && b[j]-'0' <= 9 {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	intEnd := digits(j)
	switch {
	case intEnd == j:
		return 0, j, notAKey(b, i, "a number")
	case b[j] == '0' && intEnd-j > 1:
		return 0, j, errors.New("leading zero")
	}
	j = intEnd
	if j < len(b) && b[j] == '.' {
		fracEnd := digits(j + 1)
		if fracEnd == j+1 {
			return 0, j, errors.New("no digits after the decimal point")
		}
		j = fracEnd
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		expEnd := digits(j)
		if expEnd == j {
			return 0, j, errors.New("no digits in the exponent")
		}
		j = expEnd
	}
	f, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return 0, j, errors.Unwrap(err) // the NumError's cause; the caller names the key
	}
	return f, j, nil
}

// arenaChunk is the byteArena's allocation unit: large enough that a job
// of short keys costs a handful of allocations, small enough that the
// last chunk's unused tail is noise.
const arenaChunk = 256 << 10

// byteArena backs a bytes job's decoded keys with a few large chunks
// instead of one allocation per key.
type byteArena struct{ free []byte }

// decode base64-decodes src into the arena and returns the key, capped
// so nothing can append into its neighbour.
func (a *byteArena) decode(src []byte) ([]byte, error) {
	need := base64.StdEncoding.DecodedLen(len(src))
	if a.free == nil || len(a.free) < need {
		a.free = make([]byte, max(need, arenaChunk))
	}
	n, err := base64.StdEncoding.Decode(a.free[:need], src)
	if err != nil {
		return nil, err
	}
	key := a.free[:n:n]
	a.free = a.free[n:]
	return key, nil
}

// scan decodes the base64 JSON string at b[i:]. A string without
// escapes decodes straight from the body; one with a backslash is
// unquoted by encoding/json first.
//
// The common case takes one bytes.IndexByte for the closing quote and
// the decode: a backslash or a control character ahead of the quote
// fails the decode, except \r and \n, which the decoder skips. It
// skipped none exactly when the span is whole 4-byte quanta and decoded
// to within the two padding bytes of 3 bytes a quantum. Anything else
// is walked byte by byte, which finds the escape or refuses the string.
func (a *byteArena) scan(b []byte, i int) ([]byte, int, error) {
	if i == len(b) || b[i] != '"' {
		return nil, i, notAKey(b, i, "a base64 string")
	}
	if q := bytes.IndexByte(b[i+1:], '"'); q >= 0 {
		src := b[i+1 : i+1+q]
		if key, err := a.decode(src); err == nil && len(src)%4 == 0 && len(key) >= len(src)/4*3-2 {
			return key, i + 2 + q, nil
		}
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			key, err := a.decode(b[i+1 : j])
			return key, j + 1, err
		case c == '\\':
			end, err := skipString(b, i)
			if err != nil {
				return nil, end, err
			}
			var s string
			if err := json.Unmarshal(b[i:end], &s); err != nil {
				return nil, end, err
			}
			key, err := a.decode([]byte(s))
			return key, end, err
		case c < ' ':
			return nil, j, errors.New("control character in string")
		}
	}
	return nil, len(b), errTruncated
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanName scans an object member name at b[i:].
func scanName(b []byte, i int) (string, int, error) {
	if b[i] != '"' {
		return "", i, fmt.Errorf("expected a member name at offset %d", i)
	}
	end, err := skipString(b, i)
	if err != nil {
		return "", end, err
	}
	raw := b[i+1 : end-1]
	if bytes.IndexByte(raw, '\\') < 0 {
		return string(raw), end, nil
	}
	var name string
	err = json.Unmarshal(b[i:end], &name)
	return name, end, err
}

// skipString returns the offset just past the string opening at b[i].
func skipString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return len(b), errTruncated
}

// skipValue returns the offset just past the JSON value at b[i:],
// judging structure only — strings by their closing quote, containers
// by bracket depth, scalars by the next delimiter. Whoever consumes the
// span validates it.
func skipValue(b []byte, i int) (int, error) {
	if i == len(b) {
		return i, errTruncated
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		for depth := 0; i < len(b); i++ {
			switch b[i] {
			case '"':
				end, err := skipString(b, i)
				if err != nil {
					return end, err
				}
				i = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, nil
				}
			}
		}
		return i, errTruncated
	}
	for i < len(b) && !strings.ContainsRune(",}] \n\t\r", rune(b[i])) {
		i++
	}
	return i, nil
}
