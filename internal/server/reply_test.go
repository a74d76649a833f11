package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hssort"
	"hssort/internal/dist"
)

// refDoc is the job document as the daemon used to marshal it whole:
// the envelope, then the result with its shards behind an any.
type refDoc struct {
	jobDoc
	Result *refResult `json:"result,omitempty"`
}

type refResult struct {
	Shards any        `json:"shards"`
	Values [][]string `json:"values,omitempty"`
}

// TestJobDocBytesMatchEncodingJSON checks that the streamed job
// document is byte for byte what json.Encoder emits for it: every key
// type and a record job, each with an empty and a nil shard, keys at
// the formats' edges, and results long enough to cross chunk flushes.
func TestJobDocBytesMatchEncodingJSON(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2})
	stats := hssort.Stats{N: 7, Rounds: 2, Imbalance: 1.0393, LocalSort: 3 * time.Millisecond, TotalSample: 40}

	manyInts := make([]int64, 20_000)
	for i := range manyInts {
		manyInts[i] = int64(i)*7_777_777_777 - 1<<62
	}
	manyFloats := make([]float64, 5_000)
	for i := range manyFloats {
		manyFloats[i] = math.Ldexp(float64(i)-2500.5, i%200-100)
	}
	hugeKey := bytes.Repeat([]byte{0xfb, 0xff, 0x00}, chunkSize) // one key several chunks long
	nasty := []string{"", "plain", `q"uo\te`, "<a href='x'>&amp;</a>", "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1bdel\x7f",
		"snow☃ \u2028 sep \u2029 end", "bad\xffutf8\xc0\xaf", "\xe2\x82", strings.Repeat("long ", 10_000)}

	cases := []docCase{
		newDocCase("int64", int64Keys.appendJSON, [][]int64{{math.MinInt64, -1, 0}, {}, nil, {1, math.MaxInt64}, manyInts}, nil),
		newDocCase("uint64", uint64Keys.appendJSON, [][]uint64{{}, {0, 1, math.MaxUint64}, nil}, nil),
		newDocCase("float64", float64Keys.appendJSON, [][]float64{
			{-1e21, -1.5, math.Copysign(0, -1), 0, 5e-324, 9.9e-7, 1e-6, 0.1}, nil, {}, {1, 1e20, 1e21, 1.7976931348623157e308}, manyFloats}, nil),
		newDocCase("bytes", appendJSONBytes, [][][]byte{{{}, nil, []byte("a"), []byte("ab"), []byte("abc")}, {}, nil, {hugeKey, {0xff}}}, nil),
		newDocCase("int64", int64Keys.appendJSON, [][]int64{{1, 2, 3, 4, 5, 6, 7, 8, 9}, {}, nil}, [][]string{nasty, {}, nil}),
		newDocCase("int64", int64Keys.appendJSON, [][]int64(nil), nil),
	}
	for i, tc := range cases {
		j := &job{id: "j-00000007", tenant: `ten"ant<&>`, dataset: "d", keyType: tc.keyType, n: 7,
			status: statusDone, result: tc.res, stats: stats, outcome: planMiss}
		d, _ := j.doc()
		checkDocBytes(t, srv, fmt.Sprintf("case %d (%s)", i, tc.keyType), j, refDoc{jobDoc: d, Result: tc.ref})
	}

	// Unfinished and failed jobs are the envelope alone.
	for _, j := range []*job{
		{id: "j-00000008", tenant: "t", dataset: "d", keyType: "bytes", n: 3, status: statusQueued},
		{id: "j-00000009", tenant: "t", dataset: "d", keyType: "int64", n: 3, status: statusFailed,
			err: errors.New(`deadline "exceeded" <soon>`), outcome: planHit, result: cases[0].res},
	} {
		d, res := j.doc()
		if res != nil {
			t.Errorf("%s job document carries a result", j.status)
		}
		checkDocBytes(t, srv, string(j.status), j, refDoc{jobDoc: d})
	}
}

// docCase is one result, as the daemon holds it and as the reference
// encoder takes it.
type docCase struct {
	keyType string
	res     jobResult
	ref     *refResult
}

func newDocCase[K any](keyType string, appendKey func([]byte, K) []byte, shards [][]K, values [][]string) docCase {
	return docCase{keyType, &shardsResult[K]{shards: shards, values: values, appendKey: appendKey}, &refResult{Shards: shards, Values: values}}
}

func checkDocBytes(t *testing.T, srv *Server, name string, j *job, ref refDoc) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(ref); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.writeJobDoc(rec, http.StatusOK, j)
	got := rec.Body.Bytes()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("%s: status %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
	}
	if bytes.Equal(got, want.Bytes()) {
		return
	}
	at := 0
	for at < len(got) && at < want.Len() && got[at] == want.Bytes()[at] {
		at++
	}
	lo := max(0, at-40)
	t.Errorf("%s: %d reply bytes, encoding/json writes %d; they part at offset %d:\n got …%q\nwant …%q",
		name, len(got), want.Len(), at, got[lo:min(len(got), at+40)], want.Bytes()[lo:min(want.Len(), at+40)])
}

// discardResponse is a ResponseWriter that counts what it is sent.
type discardResponse struct {
	header http.Header
	n      int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// BenchmarkJobCodec times the daemon's codec kernel alone — request
// body to typed shards, sorted shards to reply bytes — on the two job
// shapes of the ledger's service_mix workload. MB/s is over the body
// and the reply respectively.
func BenchmarkJobCodec(b *testing.B) {
	srv := New(Config{Shards: 4})
	defer srv.Close()

	ints := dist.Spec{Kind: dist.Gaussian}.Shard(100_000, 0, 1, 1)
	intBody := []byte(`{"tenant":"bench","keyType":"int64","wait":true,"keys":[`)
	for i, k := range ints {
		if i > 0 {
			intBody = append(intBody, ',')
		}
		intBody = int64Keys.appendJSON(intBody, k)
	}
	intBody = append(intBody, "]}"...)

	urls := dist.ByteSpec{Kind: dist.URLLike}.Shard(20_000, 0, 1, 1)
	urlBody := []byte(`{"tenant":"bench","keyType":"bytes","wait":true,"keys":[`)
	for i, k := range urls {
		if i > 0 {
			urlBody = append(urlBody, ',')
		}
		urlBody = appendJSONBytes(urlBody, k)
	}
	urlBody = append(urlBody, "]}"...)

	for _, shape := range []struct {
		name string
		body []byte
		res  jobResult
	}{
		{"int64-100k", intBody, &shardsResult[int64]{shards: shardSlice(ints, 4), appendKey: int64Keys.appendJSON}},
		{"url-20k", urlBody, &shardsResult[[]byte]{shards: shardSlice(urls, 4), appendKey: appendJSONBytes}},
	} {
		b.Run("decode/"+shape.name, func(b *testing.B) {
			b.SetBytes(int64(len(shape.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := parseJobRequest(shape.body, 4, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+shape.name, func(b *testing.B) {
			j := &job{id: "j-00000001", tenant: "bench", dataset: "default", status: statusDone, result: shape.res}
			w := &discardResponse{header: http.Header{}}
			srv.writeJobDoc(w, http.StatusOK, j)
			b.SetBytes(int64(w.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.writeJobDoc(w, http.StatusOK, j)
			}
		})
	}
}

// FuzzAppendUint checks the word-at-a-time formatter against strconv on
// every bit pattern, read as a uint64 and as an int64.
func FuzzAppendUint(f *testing.F) {
	seeds := []uint64{0, 1, math.MaxInt64, 1 << 63, math.MaxUint64} // 1<<63 and MaxUint64 are MinInt64 and −1 as int64
	for k, p := 1, uint64(10); k <= 19; k, p = k+1, p*10 {
		seeds = append(seeds, p, p-1, -p, -(p - 1))
	}
	for _, v := range seeds {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		prefix := []byte("[7,")[:3:3] // full, so neither append can write into the other's bytes
		if got, want := appendUint(prefix, v), strconv.AppendUint(prefix, v, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendUint(%d) = %q, want %q", v, got, want)
		}
		if got, want := appendInt(prefix, int64(v)), strconv.AppendInt(prefix, int64(v), 10); !bytes.Equal(got, want) {
			t.Fatalf("appendInt(%d) = %q, want %q", int64(v), got, want)
		}
	})
}
