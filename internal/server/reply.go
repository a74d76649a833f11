package server

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"hssort"
)

// jobDoc is the job document returned by the jobs endpoints, up to its
// last member: a done job's result follows Stats, streamed by
// writeJobDoc rather than marshalled.
type jobDoc struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Dataset string `json:"dataset"`
	KeyType string `json:"keyType"`
	N       int    `json:"n"`
	Status  string `json:"status"`
	// Error is the failure (or cancellation) cause, set for failed and
	// canceled jobs.
	Error string `json:"error,omitempty"`
	// PlanCache is the run's plan-cache verdict: "hit", "miss" or
	// "replanned". Empty until the job finishes (or when it never
	// reached a sort).
	PlanCache string `json:"planCache,omitempty"`
	// Stats is the sort's per-run statistics, set for done jobs.
	Stats *hssort.StatsSnapshot `json:"stats,omitempty"`
}

// doc snapshots the job document and, for a done job, its result.
func (j *job) doc() (jobDoc, jobResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := jobDoc{
		ID:        j.id,
		Tenant:    j.tenant,
		Dataset:   j.dataset,
		KeyType:   j.keyType,
		N:         j.n,
		Status:    string(j.status),
		PlanCache: j.outcome.String(),
	}
	if j.err != nil {
		d.Error = j.err.Error()
	}
	if j.status != statusDone {
		return d, nil
	}
	snap := j.stats.Snapshot()
	d.Stats = &snap
	return d, j.result
}

// chunkSize is how much of a reply accumulates before it is handed to
// the ResponseWriter: large enough to amortize the write, small enough
// that a 2 MB result never exists as one buffer.
const chunkSize = 32 << 10

var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, 0, chunkSize+chunkSize/8)
	return &b
}}

// chunkWriter accumulates a reply in buf and writes it to w a chunk at
// a time. Write only appends, so what the envelope's json.Encoder wrote
// can still be edited before the first flush.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error // the first failed write; the client is gone, later chunks are dropped
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *chunkWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// writeJobDoc answers submit, get and cancel with j's job document:
// byte for byte what a json.Encoder (HTML escaping off) would emit for
// the document with the result as its last member, but only the small
// envelope goes through encoding/json — the result's shards stream
// through a pooled chunk buffer, typed, with no reflection and no
// result-sized encode buffer.
func (s *Server) writeJobDoc(w http.ResponseWriter, code int, j *job) {
	t0 := time.Now()
	d, res := j.doc()
	bp := chunkPool.Get().(*[]byte)
	c := &chunkWriter{w: w, buf: (*bp)[:0]}
	defer func() {
		if cap(c.buf) <= 2*chunkSize { // one huge bytes key must not stay pinned in the pool
			*bp = c.buf
			chunkPool.Put(bp)
		}
		s.metrics.phase(phaseEncode, time.Since(t0))
	}()
	enc := json.NewEncoder(c)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(d); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if res != nil {
		c.buf = append(c.buf[:len(c.buf)-len("}\n")], `,"result":`...) // reopen the envelope
		res.writeTo(c)
		c.buf = append(c.buf, "}\n"...)
	}
	c.flush()
}

// shardsResult is the jobResult over key type K.
type shardsResult[K any] struct {
	shards    [][]K
	values    [][]string // record jobs only
	appendKey func(dst []byte, k K) []byte
}

func (r *shardsResult[K]) writeTo(c *chunkWriter) {
	c.buf = append(c.buf, `{"shards":`...)
	writeShards(c, r.shards, r.appendKey)
	if len(r.values) > 0 {
		c.buf = append(c.buf, `,"values":`...)
		writeShards(c, r.values, appendJSONString)
	}
	c.buf = append(c.buf, '}')
}

// writeShards appends shards as a JSON array of arrays, flushing c as
// it fills. Like encoding/json it writes a nil slice as null.
func writeShards[E any](c *chunkWriter, shards [][]E, appendElem func([]byte, E) []byte) {
	if shards == nil {
		c.buf = append(c.buf, "null"...)
		return
	}
	c.buf = append(c.buf, '[')
	for r, sh := range shards {
		if r > 0 {
			c.buf = append(c.buf, ',')
		}
		if sh == nil {
			c.buf = append(c.buf, "null"...)
			continue
		}
		buf := append(c.buf, '[')
		for i, e := range sh {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendElem(buf, e)
			if len(buf) >= chunkSize {
				c.buf = buf
				c.flush()
				buf = c.buf
			}
		}
		c.buf = append(buf, ']')
	}
	c.buf = append(c.buf, ']')
}

// appendJSONBytes appends a []byte key the encoding/json way: a base64
// string, or null for a nil slice.
func appendJSONBytes(dst, key []byte) []byte {
	if key == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, key)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float64 format: the
// shortest round-tripping decimal, in exponent form only below 1e-6 or
// from 1e21 up, the exponent without a leading zero. Keys arrive
// through JSON, so f is finite.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s quoted the encoding/json way with HTML
// escaping off: quote, backslash and control characters escaped,
// invalid UTF-8 replaced by U+FFFD, and U+2028/U+2029 escaped because
// JSONP consumers choke on them raw.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
