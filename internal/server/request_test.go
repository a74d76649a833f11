package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// diffKeyScanner is the differential oracle behind the four key-scanner
// fuzz targets: on any input, scanKeys with elem and json.Unmarshal into
// []K must both reject, or both accept with equal keys. The one
// sanctioned divergence is strictness: an element encoding/json quietly
// coerces — null into a zero key, and (for bytes) an array of numbers
// into a byte string — is a scanner error.
func diffKeyScanner[K any](t *testing.T, data []byte, elem func([]byte, int) (K, int, error), equal func(a, b K) bool) {
	t.Helper()
	var want []K
	refErr := json.Unmarshal(data, &want)

	got, end, err := scanKeys(data, skipSpace(data, 0), 0, elem)
	if err == nil && skipSpace(data, end) != len(data) {
		err = errors.New("trailing bytes") // json.Unmarshal takes exactly one value
	}
	switch {
	case err != nil && refErr != nil:
	case err == nil && refErr != nil:
		t.Fatalf("scanner accepted %q as %v; encoding/json rejects it: %v", data, got, refErr)
	case err != nil && refErr == nil:
		var elems []json.RawMessage
		if json.Unmarshal(data, &elems) != nil {
			t.Fatalf("scanner rejected %q (%v); encoding/json accepts it as %v", data, err, want)
		}
		coerced := slices.ContainsFunc(elems, func(e json.RawMessage) bool {
			return string(e) == "null" || e[0] == '['
		})
		if !coerced {
			t.Fatalf("scanner rejected %q (%v); encoding/json accepts it as %v", data, err, want)
		}
	default:
		if !slices.EqualFunc(got, want, equal) {
			t.Fatalf("%q: scanner decoded %v, encoding/json %v", data, got, want)
		}
	}
}

// numberSeeds are the shared corpus of the numeric targets: the edge
// forms where a hand scanner and encoding/json could disagree.
var numberSeeds = append([]string{
	`[]`, ` [ ] `, `null`, `[1,2,3]`, "[ 1 ,\t-2 ,\n3\r]", `[-0]`, `[0]`, `[1e2]`, `[1.0]`, `[1E+2]`, `[1e-2]`,
	`[18446744073709551615]`, `[18446744073709551616]`, `[99999999999999999999]`,
	`[9223372036854775807]`, `[9223372036854775808]`, `[-9223372036854775808]`, `[-9223372036854775809]`,
	`[01]`, `[-01]`, `[00]`, `[1,]`, `[,1]`, `[1 2]`, `[1`, `[`, `[-]`, `[+1]`, `[.5]`, `[1.]`, `[1e]`, `[1e+]`,
	`[null]`, `[1,null]`, `["1"]`, `[true]`, `[[1]]`, `[{}]`, `[1]]`, `[1]x`, `[1e400]`, `[1e-400]`, `[0.1e1]`,
	`[5e-324]`, `[1.7976931348623157e308]`, `[-0.0]`, `[0e0]`, "[1\v]", `{}`, `nul`, `nullx`, ``,
	`[0000000012]`, `[-9223372036854775808`,
}, wordBoundarySeeds()...)

// wordBoundarySeeds are the forms where the word-at-a-time digit scan
// changes course: runs of 1–20 digits (a full word, a partial one, the
// byte loop past 16 digits, the 20-digit range check), each starting at
// every offset of an 8-byte word and followed by a delimiter, a
// fraction, an exponent, the bytes just outside '0'–'9', or the end of
// the buffer. Each form that closes its array comes twice, the second
// time with trailing space, so that the word loads reach past the run
// whatever its length.
func wordBoundarySeeds() []string {
	var seeds []string
	for n := 1; n <= 20; n++ {
		for _, run := range []string{"12345678901234567890"[:n], strings.Repeat("9", n)} {
			for pad := 0; pad < 8; pad++ {
				form := "[" + strings.Repeat(" ", pad) + run
				seeds = append(seeds, form)
				for _, tail := range []string{",0]", "]", ".5]", "e1]", "/]", ":]"} {
					seeds = append(seeds, form+tail, form+tail+"        ")
				}
			}
		}
	}
	return seeds
}

func FuzzKeyScannerInt64(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffKeyScanner(t, data, scanInt64, func(a, b int64) bool { return a == b })
	})
}

func FuzzKeyScannerUint64(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffKeyScanner(t, data, scanUint64, func(a, b uint64) bool { return a == b })
	})
}

func FuzzKeyScannerFloat64(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bit equality: -0 and 0 are different keys.
		diffKeyScanner(t, data, scanFloat64, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	})
}

func FuzzKeyScannerBytes(f *testing.F) {
	for _, s := range []string{
		`[]`, `null`, `[""]`, `["YQ=="]`, `["YWI=","YWJj"]`, ` [ "YQ==" , "Yg==" ] `,
		`["YQ\u003d\u003d"]`, `["\u0059Q=\u003d"]`, `["Y\nQ=="]`, "[\"Y\nQ==\"]", `["YQ\r\n=="]`, `["Y\/8="]`,
		`["YQ="]`, `["YQ"]`, `["YQ==="]`, `["Y=Q="]`, `["YR=="]`, `["*Q=="]`, `["YQ==","`, `["YQ==`, `["YQ==\"]`,
		`[null]`, `["YQ==",null]`, `[[97,98]]`, `[[256]]`, `[1]`, `[{}]`, `["YQ=="]]`, `["YQ==",]`, `["\ud800"]`,
		"[\"\xff\"]", `["YQ\u00"]`, `["\x"]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var arena byteArena
		diffKeyScanner(t, data, arena.scan, bytes.Equal)
	})
}

// TestKeyScannerSeeds runs the fuzz corpora as a plain test, and pins
// the verdict on the forms docs/API.md names.
func TestKeyScannerSeeds(t *testing.T) {
	for _, s := range numberSeeds {
		diffKeyScanner(t, []byte(s), scanInt64, func(a, b int64) bool { return a == b })
		diffKeyScanner(t, []byte(s), scanUint64, func(a, b uint64) bool { return a == b })
		diffKeyScanner(t, []byte(s), scanFloat64, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	for _, tc := range []struct {
		in   string
		want error
	}{
		{`[1,null]`, errNullKey},
		{`[1.0]`, errNotInteger},
		{`[1e2]`, errNotInteger},
		{`[99999999999999999999]`, strconv.ErrRange},
	} {
		if _, _, err := scanKeys([]byte(tc.in), 0, 0, scanInt64); !errors.Is(err, tc.want) {
			t.Errorf("scanInt64 over %s: %v, want %v", tc.in, err, tc.want)
		}
	}
	var arena byteArena
	if _, _, err := scanKeys([]byte(`["YQ==",null]`), 0, 0, arena.scan); !errors.Is(err, errNullKey) {
		t.Errorf("bytes scanner over a null element: %v, want %v", err, errNullKey)
	}
	// A raw control character ahead of the closing quote and of any
	// escape is refused as such, not left to the base64 decoder (which
	// skips newlines, four of them a whole quantum) or to encoding/json.
	for _, in := range []string{
		"[\"YWJj\x1fZGVmZ2hp\"]", "[\"YWJjZGVmZ2hp\nYQ==\"]", "[\"YWJj\n\n\r\nZGVm\"]", "[\"\x01\\u0059Q==\"]", "[\"YQ\r",
	} {
		if _, _, err := scanKeys([]byte(in), 0, 0, arena.scan); err == nil || !strings.Contains(err.Error(), "control character") {
			t.Errorf("bytes scanner over %q: %v, want the control-character refusal", in, err)
		}
	}
}

// TestScanKeysStopsAtLimit checks that -max-keys refuses before
// decoding: over a body ten times the limit the scanner stops at the
// first key past it, and the submission is a 413 even though the bytes
// it never reached are not JSON at all.
func TestScanKeysStopsAtLimit(t *testing.T) {
	const limit = 10
	body := []byte(`{"tenant":"t","keyType":"int64","keys":[`)
	keysAt := len(body) - 1
	stopAt := 0
	for k := 0; k < 10*limit; k++ {
		if k == limit {
			stopAt = len(body) + 1 // past the comma: where key limit+1 starts
		}
		if k > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(1000+k), 10)
	}
	intact := append(slices.Clone(body), "]}"...)

	keys, end, err := scanKeys(intact, keysAt, limit, scanInt64)
	var tooMany *tooManyKeysError
	if !errors.As(err, &tooMany) || keys != nil {
		t.Fatalf("scanKeys over %d keys with limit %d: %v keys, err %v", 10*limit, limit, len(keys), err)
	}
	if end != stopAt {
		t.Errorf("scanner consumed up to offset %d of %d, want %d (the start of key %d)", end, len(intact), stopAt, limit+1)
	}

	_, _, err = parseJobRequest(append(body[:stopAt+4:stopAt+4], ` this is not JSON`...), 2, limit)
	if !errors.As(err, &tooMany) {
		t.Errorf("a body that is garbage past key %d: %v, want the key-limit refusal", limit+1, err)
	}
	if _, data, err := parseJobRequest(intact, 2, 10*limit); err != nil || data.n() != 10*limit {
		t.Errorf("a job exactly at its limit was refused: %v", err)
	}
}

// TestParseJobRequestMemberOrder checks the one-pass walk's contract:
// keys may precede keyType, the last duplicate of any member wins, and
// unknown members are skipped whatever they hold.
func TestParseJobRequestMemberOrder(t *testing.T) {
	want := []int64{3, 1, 2}
	for name, body := range map[string]string{
		"keyType first":            `{"tenant":"t","keyType":"int64","keys":[3,1,2]}`,
		"keys first":               `{"keys":[3,1,2],"keyType":"int64","tenant":"t"}`,
		"duplicate keys":           `{"tenant":"t","keyType":"int64","keys":[9],"keys":[3,1,2]}`,
		"duplicate keyType":        `{"tenant":"t","keyType":"float64","keys":[3,1,2],"keyType":"int64"}`,
		"keyType twice, then keys": `{"tenant":"t","keyType":"bytes","keyType":"int64","keys":[3,1,2]}`,
		"unknown members":          `{"x":{"keys":[1,{"y":"]}"}]},"tenant":"t","Tenant":"other","keyType":"int64","keys":[3,1,2],"z":null}`,
		"escaped member name":      `{"ten\u0061nt":"t","keyType":"int64","\u006beys":[3,1,2]}`,
		"whitespace":               " {\n\t\"tenant\" : \"t\" ,\r\n \"keyType\" : \"int64\" , \"keys\" : [ 3 , 1 , 2 ] } \n",
	} {
		req, data, err := parseJobRequest([]byte(body), 1, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		p, ok := data.(*orderedPayload[int64])
		if !ok || req.Tenant != "t" || req.Dataset != "default" || !slices.Equal(p.shards[0], want) {
			t.Errorf("%s: parsed tenant %q dataset %q payload %#v", name, req.Tenant, req.Dataset, data)
		}
	}
	// The duplicate keyType case must have rescanned: the keys it first
	// saw as float64 are int64 in the payload, fractions and all.
	_, _, err := parseJobRequest([]byte(`{"tenant":"t","keyType":"float64","keys":[1.5],"keyType":"int64"}`), 1, 0)
	if !errors.Is(err, errNotInteger) {
		t.Errorf("keys scanned as float64, then retyped int64: %v, want %v", err, errNotInteger)
	}
}

// TestSamplePositionsMatchStridedWalk pins the fingerprint sample to
// the positions the original all-keys walk picked — every stride-th key
// of the concatenation, at most fingerprintSampleMax — so plan-cache
// fingerprints stay bit-identical. The walk is kept here as the oracle.
func TestSamplePositionsMatchStridedWalk(t *testing.T) {
	type pos struct{ r, i int }
	walk := func(shards [][]struct{}) []pos {
		n := shardsLen(shards)
		stride := max(1, n/fingerprintSampleMax)
		var picked []pos
		g := 0
		for r, sh := range shards {
			for i := range sh {
				if g%stride == 0 && len(picked) < fingerprintSampleMax {
					picked = append(picked, pos{r, i})
				}
				g++
			}
		}
		return picked
	}
	for _, lens := range [][]int{
		{}, {0}, {0, 0, 0, 0}, {1}, {0, 1, 0}, {3, 0, 2}, {32, 32, 32, 32}, {32, 32, 32, 31}, {127}, {128}, {129},
		{255}, {256}, {257}, {64, 64, 64, 63}, {64, 64, 64, 65}, {100, 0, 0, 300}, {0, 0, 500, 1}, {1000, 1000, 1000, 1000},
		{25000, 25000, 25000, 25000}, {33334, 33334, 33332, 0}, {1, 1, 1, 100000}, {383, 1}, {384}, {1, 383},
	} {
		shards := make([][]struct{}, len(lens))
		for r, n := range lens {
			shards[r] = make([]struct{}, n)
		}
		var got []pos
		samplePositions(shards, func(r, i int) { got = append(got, pos{r, i}) })
		if want := walk(shards); !slices.Equal(got, want) {
			t.Errorf("shard lengths %v: sampled %d positions %v, the strided walk picks %d %v", lens, len(got), got, len(want), want)
		}
	}
}

// TestRankInShards checks the shard-wise rank search against a search
// of the flattened keys, on every probe around every key — shard
// boundaries, duplicates straddling shards, and empty shards included.
func TestRankInShards(t *testing.T) {
	for _, shards := range [][][]int64{
		{{1, 3, 5}, {7, 9}, {11}},             // a probe equal to a shard's last key and the next one's first
		{{1, 3, 5}, {}, {5, 5, 9}, {}},        // empty shards, a duplicate run across a boundary
		{{}, {}, {2, 4}, {}},                  // leading and trailing empties
		{{}, {}},                              // nothing at all
		{{4, 4, 4}, {4, 4}, {4}},              // one key everywhere
		{nil, {1}, nil, {2}, {3, 4, 5, 6, 7}}, // nil shards
	} {
		var flat []int64
		for _, sh := range shards {
			flat = append(flat, sh...)
		}
		for probe := int64(0); probe <= 12; probe++ {
			got := rankIn(shards, func(x int64) bool { return x >= probe })
			want, _ := slices.BinarySearch(flat, probe)
			if got != int64(want) {
				t.Errorf("rank of %d in %v = %d, want %d", probe, shards, got, want)
			}
		}
	}
}

func TestSkipValue(t *testing.T) {
	for in, want := range map[string]string{
		`"a\"b" ,`:          `"a\"b"`,
		`"a\\",1`:           `"a\\"`,
		`[1,[2,"]"],{}] x`:  `[1,[2,"]"],{}]`,
		`{"a":"}","b":[]},`: `{"a":"}","b":[]}`,
		`12.5e3,`:           `12.5e3`,
		`true}`:             `true`,
		`null`:              `null`,
	} {
		end, err := skipValue([]byte(in), 0)
		if err != nil || in[:end] != want {
			t.Errorf("skipValue(%s) = %q, %v; want %q", in, in[:end], err, want)
		}
	}
	for _, in := range []string{``, `"abc`, `"abc\`, `[1,[2]`, `{"a":"b}`} {
		if end, err := skipValue([]byte(in), 0); !errors.Is(err, errTruncated) {
			t.Errorf("skipValue(%s) = %d, %v; want %v", in, end, err, errTruncated)
		}
	}
}

// TestByteArenaKeysAreIndependent checks that arena-backed keys cannot
// grow into each other and survive the arena moving to a new chunk.
func TestByteArenaKeysAreIndependent(t *testing.T) {
	var arena byteArena
	big := strings.Repeat("QUJD", arenaChunk/4) // most of a chunk each: the second cannot share the first's
	body := fmt.Sprintf(`["","YWJj","ZGVm","%s","%s","Z2hp"]`, big, big)
	keys, _, err := scanKeys([]byte(body), 0, 0, arena.scan)
	if err != nil {
		t.Fatal(err)
	}
	if keys[0] == nil || len(keys[0]) != 0 {
		t.Errorf("the empty key decoded to %#v, want empty and non-nil (nil would marshal as null)", keys[0])
	}
	if grown := append(keys[1], "XYZ"...); string(grown) != "abcXYZ" || string(keys[2]) != "def" {
		t.Errorf("appending to one key wrote into its neighbour: %q", keys[2])
	}
	want := strings.Repeat("ABC", arenaChunk/4)
	if string(keys[3]) != want || string(keys[4]) != want || string(keys[5]) != "ghi" {
		t.Errorf("keys across chunk boundaries decoded wrong: %d and %d bytes, then %q", len(keys[3]), len(keys[4]), keys[5])
	}
}
