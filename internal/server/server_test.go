package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hssort"
)

// submitBody mirrors the POST /v1/jobs request from the client's side.
type submitBody struct {
	Tenant    string   `json:"tenant,omitempty"`
	Dataset   string   `json:"dataset,omitempty"`
	KeyType   string   `json:"keyType,omitempty"`
	Keys      any      `json:"keys,omitempty"`
	Values    []string `json:"values,omitempty"`
	TimeoutMs int64    `json:"timeoutMs,omitempty"`
	Wait      bool     `json:"wait,omitempty"`
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	t.Cleanup(srv.Close)
	return srv
}

// rawBody is a request body sent as written, for submissions no
// marshaller would produce.
type rawBody string

// call drives one request through the server and decodes the JSON body.
func call(t *testing.T, srv *Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.(rawBody); ok {
		rd = bytes.NewReader([]byte(raw))
	} else if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var doc map[string]any
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code, doc
}

func submitWait(t *testing.T, srv *Server, body submitBody) map[string]any {
	t.Helper()
	body.Wait = true
	code, doc := call(t, srv, "POST", "/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("wait-submit returned %d: %v", code, doc)
	}
	return doc
}

// resultKeys flattens the result shards of a finished job document into
// float64s (JSON numbers as decoded into any).
func resultKeys(t *testing.T, doc map[string]any) []float64 {
	t.Helper()
	result, ok := doc["result"].(map[string]any)
	if !ok {
		t.Fatalf("job doc has no result: %v", doc)
	}
	var flat []float64
	for _, sh := range result["shards"].([]any) {
		for _, k := range sh.([]any) {
			flat = append(flat, k.(float64))
		}
	}
	return flat
}

// TestServerSortsNumericKeys checks the end-to-end submit path for the
// numeric key types: the daemon's output is the sorted input, the first
// sight of a distribution is a plan-cache miss with real histogramming
// rounds, and stats travel on the job document.
func TestServerSortsNumericKeys(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(1))
	for _, kt := range []string{"int64", "uint64", "float64"} {
		var keys []any
		for i := 0; i < 3000; i++ {
			keys = append(keys, float64(rng.Intn(1_000_000)))
		}
		doc := submitWait(t, srv, submitBody{Tenant: "acme", Dataset: kt, KeyType: kt, Keys: keys})
		if doc["status"] != "done" {
			t.Fatalf("%s job: %v", kt, doc)
		}
		if doc["planCache"] != "miss" {
			t.Errorf("%s first sight reported planCache %q, want miss", kt, doc["planCache"])
		}
		stats, ok := doc["stats"].(map[string]any)
		if !ok || stats["n"].(float64) != 3000 {
			t.Fatalf("%s stats missing or wrong n: %v", kt, doc["stats"])
		}
		if stats["rounds"].(float64) < 1 {
			t.Errorf("%s miss reported %v rounds, want >= 1 (plan determination)", kt, stats["rounds"])
		}
		got := resultKeys(t, doc)
		want := make([]float64, 0, len(keys))
		for _, k := range keys {
			want = append(want, k.(float64))
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s output is not the sorted input (%d keys)", kt, len(got))
		}
	}
}

// TestServerPlanCacheHit checks the recurring-tenant fast path: the
// same distribution resubmitted hits the cached plan and sorts with
// zero histogramming rounds, and the hit shows up in /metrics.
func TestServerPlanCacheHit(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(2))
	var keys []any
	for i := 0; i < 4000; i++ {
		keys = append(keys, float64(rng.Intn(1_000_000)))
	}
	first := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
	if first["status"] != "done" || first["planCache"] != "miss" {
		t.Fatalf("first job: %v", first)
	}
	second := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
	if second["status"] != "done" || second["planCache"] != "hit" {
		t.Fatalf("second job reported planCache %q, want hit", second["planCache"])
	}
	if rounds := second["stats"].(map[string]any)["rounds"].(float64); rounds != 0 {
		t.Errorf("plan-cache hit sorted with %v rounds, want 0", rounds)
	}
	// The cache is tenant-scoped: another tenant's identical data must
	// not reuse acme's plan.
	other := submitWait(t, srv, submitBody{Tenant: "rival", KeyType: "int64", Keys: keys})
	if other["planCache"] != "miss" {
		t.Errorf("foreign tenant reported planCache %q, want miss", other["planCache"])
	}

	text := metricsText(t, srv)
	for _, want := range []string{
		"hssortd_plan_cache_hits_total 1",
		"hssortd_plan_cache_misses_total 2",
		"hssortd_last_sort_rounds{tenant=\"acme\"} 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerPlanDrift checks what a cached plan is to a job: a seed,
// not a verdict. A fingerprint collision that hands drifted data another
// distribution's plan is refined by the job's own sort (reported as
// "replanned", with real rounds) and the refined plan replaces the seed,
// so the very next job of the drifted distribution hits.
func TestServerPlanDrift(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	// Force every dataset onto one cache entry so the second, very
	// different distribution collides with the first's plan.
	srv.fingerprint = func(string, int, int, []uint64) uint64 { return 42 }

	rng := rand.New(rand.NewSource(3))
	var uniform, clustered []any
	for i := 0; i < 4000; i++ {
		uniform = append(uniform, float64(rng.Int63n(1<<40)))
		clustered = append(clustered, float64(1<<40+rng.Int63n(1000)))
	}
	first := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: uniform})
	if first["status"] != "done" || first["planCache"] != "miss" {
		t.Fatalf("first job: %v", first)
	}
	drifted := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: clustered})
	if drifted["status"] != "done" {
		t.Fatalf("drifted job: %v", drifted)
	}
	if drifted["planCache"] != "replanned" {
		t.Fatalf("drifted job reported planCache %q, want replanned", drifted["planCache"])
	}
	stats := drifted["stats"].(map[string]any)
	if stats["rounds"].(float64) < 1 || stats["imbalance"].(float64) > 1.05 {
		t.Errorf("replanned run stats: %v", stats)
	}
	got := resultKeys(t, drifted)
	if !slices.IsSorted(got) || len(got) != 4000 {
		t.Errorf("replanned output wrong: %d keys, sorted=%v", len(got), slices.IsSorted(got))
	}
	// The refined plan was cached over the seed: the drifted
	// distribution hits on its very next visit.
	settled := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: clustered})
	if settled["planCache"] != "hit" || settled["stats"].(map[string]any)["rounds"].(float64) != 0 {
		t.Errorf("job after the drift reported %q with stats %v, want hit with 0 rounds", settled["planCache"], settled["stats"])
	}
	if text := metricsText(t, srv); !strings.Contains(text, "hssortd_plan_replans_total 1") {
		t.Error("/metrics missing hssortd_plan_replans_total 1")
	}
}

// TestServerPlanCacheRecordJobs: a tenant's plain and record jobs over
// the same keys fingerprint alike but keep separate plans (a record
// plan's splitters are records), so alternating traffic settles into
// hits on both instead of each kind evicting the other's plan.
func TestServerPlanCacheRecordJobs(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(9))
	var keys []any
	var values []string
	for i := 0; i < 4000; i++ {
		keys = append(keys, float64(rng.Intn(1_000_000)))
		values = append(values, strconv.Itoa(i))
	}
	for visit, want := range []string{"miss", "hit", "hit"} {
		plain := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
		if plain["status"] != "done" || plain["planCache"] != want {
			t.Errorf("visit %d: plain job reported %v / planCache %q, want %s", visit, plain["status"], plain["planCache"], want)
		}
		record := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys, Values: values})
		if record["status"] != "done" || record["planCache"] != want {
			t.Errorf("visit %d: record job reported %v / planCache %q, want %s", visit, record["status"], record["planCache"], want)
		}
	}
}

// TestServerSortsBytesKeys checks the []byte key plane end to end
// (base64 keys over JSON, prefix-code engine underneath) plus rank
// queries against the sorted output.
func TestServerSortsBytesKeys(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(4))
	var keys [][]byte
	for i := 0; i < 2000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("url/%03d/%04d", rng.Intn(500), rng.Intn(10000))))
	}
	doc := submitWait(t, srv, submitBody{Tenant: "acme", Dataset: "urls", KeyType: "bytes", Keys: keys})
	if doc["status"] != "done" {
		t.Fatalf("bytes job: %v", doc)
	}
	var got [][]byte
	for _, sh := range doc["result"].(map[string]any)["shards"].([]any) {
		for _, k := range sh.([]any) {
			// JSON []byte travels base64; decode via the json package
			// to stay faithful to the wire format.
			var b []byte
			if err := json.Unmarshal([]byte(`"`+k.(string)+`"`), &b); err != nil {
				t.Fatal(err)
			}
			got = append(got, b)
		}
	}
	want := slices.Clone(keys)
	slices.SortFunc(want, bytes.Compare)
	if len(got) != len(want) {
		t.Fatalf("got %d keys back, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("output diverges from sorted input at %d: %q vs %q", i, got[i], want[i])
		}
	}

	probe := string(want[500])
	code, rankDoc := call(t, srv, "GET", "/v1/datasets/urls/rank?tenant=acme&key="+probe, nil)
	if code != http.StatusOK {
		t.Fatalf("rank query returned %d: %v", code, rankDoc)
	}
	if r := int64(rankDoc["rank"].(float64)); r < 1 || r > 500 {
		// rank counts keys strictly below the probe; duplicates below
		// index 500 pull it under 500.
		t.Errorf("rank %d out of range for the 500th smallest key", r)
	}
}

// TestServerSortsRecords checks the KV path: values ride along with
// their keys through the record engine.
func TestServerSortsRecords(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(5))
	var keys []any
	var vals []string
	for i := 0; i < 1500; i++ {
		k := rng.Intn(100000)
		keys = append(keys, float64(k))
		vals = append(vals, fmt.Sprintf("payload-of-%d", k))
	}
	doc := submitWait(t, srv, submitBody{Tenant: "acme", Dataset: "recs", KeyType: "int64", Keys: keys, Values: vals})
	if doc["status"] != "done" {
		t.Fatalf("record job: %v", doc)
	}
	result := doc["result"].(map[string]any)
	shards := result["shards"].([]any)
	values := result["values"].([]any)
	if len(values) != len(shards) {
		t.Fatalf("%d value shards for %d key shards", len(values), len(shards))
	}
	var n int
	var prev float64 = -1
	for r := range shards {
		ks := shards[r].([]any)
		vs := values[r].([]any)
		if len(ks) != len(vs) {
			t.Fatalf("shard %d: %d keys, %d values", r, len(ks), len(vs))
		}
		for i := range ks {
			k := ks[i].(float64)
			if k < prev {
				t.Fatalf("keys not globally sorted at shard %d index %d", r, i)
			}
			prev = k
			if want := fmt.Sprintf("payload-of-%d", int(k)); vs[i].(string) != want {
				t.Fatalf("value %q detached from key %v", vs[i], k)
			}
			n++
		}
	}
	if n != 1500 {
		t.Fatalf("%d records back, want 1500", n)
	}

	// Rank queries work against record datasets too.
	if code, _ := call(t, srv, "GET", "/v1/datasets/recs/rank?tenant=acme&key=0", nil); code != http.StatusOK {
		t.Errorf("rank on a record dataset returned %d", code)
	}
}

// TestServerAdmissionControl checks queue-full 429s: with one worker
// held at the gate and a one-slot queue, the third submission is
// refused with the typed quota error, counted in /metrics, and the held
// work still finishes.
func TestServerAdmissionControl(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2, QueueDepth: 1, Concurrency: 1, TenantConcurrency: 1})
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	// Registered after newTestServer, so it runs before srv.Close and a
	// failing test cannot deadlock the drain on a still-held job.
	t.Cleanup(openGate)
	srv.sched.testGate = func(*job) { <-gate }

	keys := []any{float64(3), float64(1), float64(2), float64(4)}
	code, first := call(t, srv, "POST", "/v1/jobs", submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
	if code != http.StatusAccepted {
		t.Fatalf("first submit returned %d: %v", code, first)
	}
	waitForCond(t, func() bool { _, running := srv.sched.depth(); return running == 1 })
	if code, _ := call(t, srv, "POST", "/v1/jobs", submitBody{Tenant: "acme", KeyType: "int64", Keys: keys}); code != http.StatusAccepted {
		t.Fatalf("second submit returned %d, want 202", code)
	}
	code, refused := call(t, srv, "POST", "/v1/jobs", submitBody{Tenant: "burst", KeyType: "int64", Keys: keys})
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit returned %d, want 429", code)
	}
	if msg := refused["error"].(string); !strings.Contains(msg, "admission control") || !strings.Contains(msg, "1 of 1") {
		t.Errorf("429 error %q does not describe the queue state", msg)
	}
	// The refused job left no trace in the job table.
	if code, _ := call(t, srv, "GET", "/v1/jobs/j-00000003?tenant=burst", nil); code != http.StatusNotFound {
		t.Errorf("refused job is queryable (status %d)", code)
	}

	openGate()
	waitForCond(t, func() bool {
		q, r := srv.sched.depth()
		return q == 0 && r == 0
	})
	if code, doc := call(t, srv, "GET", "/v1/jobs/j-00000001?tenant=acme", nil); code != http.StatusOK || doc["status"] != "done" {
		t.Errorf("held job did not finish: %d %v", code, doc)
	}
	text := metricsText(t, srv)
	if !strings.Contains(text, "hssortd_rejected_total 1") {
		t.Error("/metrics missing hssortd_rejected_total 1")
	}
	if !strings.Contains(text, `hssortd_jobs_total{status="rejected",tenant="burst"} 1`) {
		t.Error("/metrics missing the rejected tenant row")
	}
}

// TestServerDeadline checks job deadlines: a job whose deadline expires
// while queued fails with the context error without touching an engine,
// and the engine pool keeps serving afterwards.
func TestServerDeadline(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2})
	// Hold every dequeued job until its own deadline has expired.
	srv.sched.testGate = func(j *job) {
		if j.ctx != nil {
			<-j.ctx.Done()
		}
	}
	keys := []any{float64(2), float64(1)}
	doc := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys, TimeoutMs: 5})
	if doc["status"] != "failed" {
		t.Fatalf("deadline job: %v", doc)
	}
	if msg := doc["error"].(string); !strings.Contains(msg, "context deadline exceeded") {
		t.Errorf("deadline job error %q, want the context error", msg)
	}
	if n := srv.engines.count(); n != 0 {
		t.Errorf("deadline-while-queued built %d engines, want 0", n)
	}

	// The gate releases undeadlined jobs immediately (ctx without a
	// deadline never fires)... so drop it before the follow-up.
	srv.sched.testGate = nil
	after := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
	if after["status"] != "done" {
		t.Fatalf("post-deadline job: %v", after)
	}
	if n := srv.engines.count(); n != 1 {
		t.Errorf("follow-up job built %d engines, want 1", n)
	}
}

// TestServerCancel checks DELETE /v1/jobs/{id}: a canceled queued job
// reports canceled with the context error and never reaches an engine;
// the pool serves the tenant's next job.
func TestServerCancel(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2, Concurrency: 1, TenantConcurrency: 1, QueueDepth: 8})
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	srv.sched.testGate = func(*job) { <-gate }
	keys := []any{float64(9), float64(7), float64(8)}
	if code, _ := call(t, srv, "POST", "/v1/jobs", submitBody{Tenant: "acme", KeyType: "int64", Keys: keys}); code != http.StatusAccepted {
		t.Fatal("first submit refused")
	}
	waitForCond(t, func() bool { _, running := srv.sched.depth(); return running == 1 })
	code, queued := call(t, srv, "POST", "/v1/jobs", submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
	if code != http.StatusAccepted {
		t.Fatal("second submit refused")
	}
	id := queued["id"].(string)

	if code, doc := call(t, srv, "DELETE", "/v1/jobs/"+id+"?tenant=acme", nil); code != http.StatusOK || doc["status"] == "done" {
		t.Fatalf("cancel returned %d %v", code, doc)
	}
	openGate()
	waitForCond(t, func() bool {
		_, doc := call(t, srv, "GET", "/v1/jobs/"+id+"?tenant=acme", nil)
		return doc["status"] == "canceled"
	})
	_, doc := call(t, srv, "GET", "/v1/jobs/"+id+"?tenant=acme", nil)
	if msg := doc["error"].(string); !strings.Contains(msg, "context canceled") {
		t.Errorf("canceled job error %q", msg)
	}

	after := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
	if after["status"] != "done" {
		t.Fatalf("post-cancel job: %v", after)
	}
}

// TestServerBadRequests checks the error taxonomy of malformed
// submissions — in particular the PR 4 convention that enum-ish parse
// errors list the valid values.
func TestServerBadRequests(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2, MaxKeys: 10})
	cases := []struct {
		name string
		body any
		code int
		want string
	}{
		{"missing tenant", submitBody{KeyType: "int64", Keys: []any{1.0}}, 400, "tenant is required"},
		{"missing key type", submitBody{Tenant: "t", Keys: []any{1.0}}, 400, "keyType is required (valid values: bytes, float64, int64, uint64)"},
		{"unknown key type", submitBody{Tenant: "t", KeyType: "int32", Keys: []any{1.0}}, 400, `unknown key type "int32" (valid values: bytes, float64, int64, uint64)`},
		{"values with bytes", submitBody{Tenant: "t", KeyType: "bytes", Keys: [][]byte{[]byte("a")}, Values: []string{"v"}}, 400, "values require an ordered key type (valid values: float64, int64, uint64)"},
		{"values mismatch", submitBody{Tenant: "t", KeyType: "int64", Keys: []any{1.0, 2.0}, Values: []string{"v"}}, 400, "1 values for 2 keys"},
		{"keys not an array", submitBody{Tenant: "t", KeyType: "int64", Keys: "nope"}, 400, "keys:"},
		{"too many keys", submitBody{Tenant: "t", KeyType: "int64", Keys: []any{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0}}, 413, "exceeds the 10-key job limit"},
		{"too many keys, found before keyType", rawBody(`{"tenant":"t","keys":[1,2,3,4,5,6,7,8,9,10,11],"keyType":"int64"}`), 413, "exceeds the 10-key job limit"},
		{"trailing bytes", rawBody(`{"tenant":"t","keyType":"int64","keys":[1]} {}`), 400, "trailing bytes after the object"},
		{"null element", rawBody(`{"tenant":"t","keyType":"int64","keys":[1,null,3]}`), 400, "element 1 at offset 42: null is not a key"},
		{"null bytes element", rawBody(`{"tenant":"t","keyType":"bytes","keys":["YQ==",null]}`), 400, "null is not a key (bytes keys are base64 strings)"},
		{"fraction in int64 keys", rawBody(`{"tenant":"t","keyType":"int64","keys":[1,2.0]}`), 400, "integer keys take no fraction or exponent"},
		{"exponent in uint64 keys", rawBody(`{"tenant":"t","keyType":"uint64","keys":[1e3]}`), 400, "integer keys take no fraction or exponent"},
		{"missing keys", rawBody(`{"tenant":"t","keyType":"int64"}`), 400, "keys is required"},
		{"field name in the wrong case", rawBody(`{"tenant":"t","KeyType":"int64","keys":[1]}`), 400, "keyType is required"},
		{"malformed unknown member", rawBody(`{"tenant":"t","keyType":"int64","keys":[1],"extra":[1,}`), 400, "extra: malformed value"},
		{"truncated body", rawBody(`{"tenant":"t","keyType":"int64","keys":[1,2`), 400, "unexpected end of body"},
		{"not an object", rawBody(`[1,2,3]`), 400, "expected a JSON object"},
		{"keys before keyType", rawBody(`{"keys":[3,1,2],"tenant":"t","keyType":"int64"}`), 202, ""},
	}
	for _, tc := range cases {
		code, doc := call(t, srv, "POST", "/v1/jobs", tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.code, doc)
			continue
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, msg, tc.want)
		}
	}
}

// TestServerTenantIsolation checks that job ids and datasets are
// tenant-scoped: a foreign tenant probing them sees a uniform 404.
func TestServerTenantIsolation(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2})
	doc := submitWait(t, srv, submitBody{Tenant: "acme", Dataset: "d", KeyType: "int64", Keys: []any{2.0, 1.0, 3.0}})
	id := doc["id"].(string)

	if code, _ := call(t, srv, "GET", "/v1/jobs/"+id+"?tenant=acme", nil); code != http.StatusOK {
		t.Fatalf("owner lookup returned %d", code)
	}
	for _, probe := range []string{"/v1/jobs/" + id + "?tenant=rival", "/v1/jobs/" + id, "/v1/jobs/j-99999999?tenant=acme"} {
		code, errDoc := call(t, srv, "GET", probe, nil)
		if code != http.StatusNotFound {
			t.Errorf("GET %s returned %d, want uniform 404", probe, code)
		}
		if msg, _ := errDoc["error"].(string); !strings.Contains(msg, "no job") {
			t.Errorf("GET %s error %q", probe, msg)
		}
	}
	if code, _ := call(t, srv, "GET", "/v1/datasets/d/rank?tenant=rival&key=1", nil); code != http.StatusNotFound {
		t.Errorf("foreign rank query returned %d, want 404", code)
	}
	if code, _ := call(t, srv, "GET", "/v1/datasets/d/rank?tenant=acme&key=zzz", nil); code != http.StatusBadRequest {
		t.Errorf("unparseable rank key returned %d, want 400", code)
	}
	if code, _ := call(t, srv, "GET", "/v1/datasets/d/rank?tenant=acme", nil); code != http.StatusBadRequest {
		t.Errorf("rank without key returned %d, want 400", code)
	}
}

// TestServerDrain checks the shutdown contract end to end: Drain stops
// admission (healthz flips, submissions get 503), finishes admitted
// jobs, tears down every engine, and leaks no goroutines.
func TestServerDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Shards: 2, Concurrency: 2})

	// Build up real state first: three engine shapes and some jobs.
	submitWait(t, srv, submitBody{Tenant: "a", KeyType: "int64", Keys: []any{3.0, 1.0, 2.0}})
	submitWait(t, srv, submitBody{Tenant: "a", KeyType: "bytes", Keys: [][]byte{[]byte("b"), []byte("a")}})
	submitWait(t, srv, submitBody{Tenant: "b", KeyType: "int64", Keys: []any{5.0, 4.0}, Values: []string{"x", "y"}})
	if n := srv.engines.count(); n < 3 {
		t.Fatalf("expected 3 engine shapes, pool built %d", n)
	}

	if code, _ := call(t, srv, "GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	srv.Close()
	if code, _ := call(t, srv, "GET", "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain returned %d, want 503", code)
	}
	code, doc := call(t, srv, "POST", "/v1/jobs", submitBody{Tenant: "a", KeyType: "int64", Keys: []any{1.0}})
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain returned %d: %v", code, doc)
	}
	// Finished jobs stay queryable through the drain.
	if code, doc := call(t, srv, "GET", "/v1/jobs/j-00000001?tenant=a", nil); code != http.StatusOK || doc["status"] != "done" {
		t.Errorf("drained server lost job history: %d %v", code, doc)
	}
	if text := metricsText(t, srv); !strings.Contains(text, "hssortd_up 0") {
		t.Error("/metrics after drain missing hssortd_up 0")
	}

	// Engine ranks, scheduler workers and transports must all be gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerMetricsShape spot-checks the Prometheus exposition: every
// documented metric name appears with HELP/TYPE, and per-tenant label
// rows are present and deterministic.
func TestServerMetricsShape(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2})
	submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: []any{2.0, 1.0}})
	text := metricsText(t, srv)
	for _, name := range []string{
		"hssortd_up", "hssortd_queue_depth", "hssortd_jobs_running",
		"hssortd_engines_built", "hssortd_plan_cache_entries",
		"hssortd_jobs_total", "hssortd_rejected_total",
		"hssortd_plan_cache_hits_total", "hssortd_plan_cache_misses_total",
		"hssortd_plan_replans_total", "hssortd_histogram_rounds_total",
		"hssortd_keys_sorted_total", "hssortd_sort_seconds_total",
		"hssortd_exchange_bytes_total", "hssortd_splitter_bytes_total",
		"hssortd_last_sort_rounds", "hssortd_last_achieved_epsilon",
	} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing TYPE line for %s", name)
		}
	}
	for _, row := range []string{
		`hssortd_jobs_total{status="done",tenant="acme"} 1`,
		"hssortd_engines_built 1",
		"hssortd_keys_sorted_total 2",
	} {
		if !strings.Contains(text, row) {
			t.Errorf("/metrics missing row %q", row)
		}
	}
	// Every phase of the one job took some time and is attributed.
	for _, phase := range phaseNames {
		row := regexp.MustCompile(`(?m)^hssortd_job_phase_seconds_total\{phase="` + phase + `"\} ([0-9.e-]+)$`).FindStringSubmatch(text)
		if row == nil {
			t.Errorf("/metrics has no %s phase row", phase)
		} else if secs, err := strconv.ParseFloat(row[1], 64); err != nil || secs <= 0 {
			t.Errorf("%s phase counter reads %q after a finished job", phase, row[1])
		}
	}
}

// TestServerFinishedJobDropsInputs checks that a finished job keeps its
// output and the two scalars its document needs, not its input shards:
// the daemon retains hundreds of finished jobs.
func TestServerFinishedJobDropsInputs(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2})
	for _, body := range []submitBody{
		{Tenant: "acme", KeyType: "int64", Keys: []any{3.0, 1.0, 2.0}},
		{Tenant: "acme", KeyType: "float64", Keys: []any{3.5, 1.5}, Values: []string{"x", "y"}},
		{Tenant: "acme", KeyType: "bytes", Keys: [][]byte{[]byte("b"), []byte("a")}},
	} {
		doc := submitWait(t, srv, body)
		j, err := srv.lookupJob(doc["id"].(string), "acme")
		if err != nil {
			t.Fatal(err)
		}
		if j.data != nil {
			t.Errorf("finished %s job still holds its payload: %#v", body.KeyType, j.data)
		}
		// The document is still whole without it.
		_, again := call(t, srv, "GET", "/v1/jobs/"+j.id+"?tenant=acme", nil)
		if again["keyType"] != body.KeyType || again["n"] != doc["n"] || again["n"].(float64) < 2 || again["result"] == nil {
			t.Errorf("GET after finish lost part of the document: %v", again)
		}
	}
	// A job canceled before it ran drops its inputs too.
	srv.sched.testGate = func(j *job) { j.cancel() }
	doc := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: []any{2.0, 1.0}})
	if j, _ := srv.lookupJob(doc["id"].(string), "acme"); doc["status"] != "canceled" || j.data != nil {
		t.Errorf("canceled job: status %v, payload %#v", doc["status"], j.data)
	}
}

// TestServerRankAcrossShards checks rank queries over HTTP where the
// sorted output leaves a shard empty and the probes sit on the shard
// boundaries.
func TestServerRankAcrossShards(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	doc := submitWait(t, srv, submitBody{Tenant: "acme", Dataset: "few", KeyType: "int64", Keys: []any{50.0, 10.0, 40.0, 20.0, 30.0}})
	var sorted []float64
	empties := 0
	for _, sh := range doc["result"].(map[string]any)["shards"].([]any) {
		if sh == nil || len(sh.([]any)) == 0 {
			empties++
			continue
		}
		for _, k := range sh.([]any) {
			sorted = append(sorted, k.(float64))
		}
	}
	if empties == 0 {
		t.Log("no shard came back empty; the empty-shard case rests on TestRankInShards")
	}
	for _, probe := range []float64{5, 10, 15, 20, 30, 40, 45, 50, 55} {
		want, _ := slices.BinarySearch(sorted, probe)
		code, rankDoc := call(t, srv, "GET", fmt.Sprintf("/v1/datasets/few/rank?tenant=acme&key=%v", probe), nil)
		if code != http.StatusOK || rankDoc["rank"] != float64(want) || rankDoc["n"] != 5.0 {
			t.Errorf("rank of %v: status %d, %v; want rank %d of 5", probe, code, rankDoc, want)
		}
		if got := rankDoc["percentile"]; got != float64(want)/5 {
			t.Errorf("percentile of %v = %v, want %v", probe, got, float64(want)/5)
		}
	}
}

// TestServerSimTransportCountsBytes: a server built on the sim transport
// sorts on it, so a job's stats carry the byte accounting only sim
// offers — the daemon's "-transport sim" is not inproc in disguise.
func TestServerSimTransportCountsBytes(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4, Transport: hssort.TransportSim})
	keys := make([]any, 2000)
	for i := range keys {
		keys[i] = float64((i * 7919) % 2000)
	}
	doc := submitWait(t, srv, submitBody{Tenant: "acme", KeyType: "int64", Keys: keys})
	stats, ok := doc["stats"].(map[string]any)
	if !ok || doc["status"] != "done" {
		t.Fatalf("job did not finish with stats: %v", doc)
	}
	if b, _ := stats["totalBytes"].(float64); b <= 0 {
		t.Errorf("sim-transport job reported totalBytes %v, want > 0", stats["totalBytes"])
	}
}

func metricsText(t *testing.T, srv *Server) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	return rec.Body.String()
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
