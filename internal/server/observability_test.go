package server

// Serving-tier observability pins: the debug=true trace echo, the
// /debug/queries slow-query inspector (with its method enforcement and its
// exclusion from the serving metrics and cache), the per-stage latency
// histograms, the per-kind error counters, and the pprof debug handler.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDebugEchoesTrace pins the debug=true knob: the response carries the
// query's span tree — rooted at "query", with the serving tier's plan and
// cache spans — while a plain request carries none.
func TestDebugEchoesTrace(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{CacheSize: 4}))
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, `{"query": "a red car", "debug": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("debug=true response has no trace")
	}
	if qr.Trace.Name != "query" {
		t.Fatalf("trace root = %q, want \"query\"", qr.Trace.Name)
	}
	names := map[string]bool{}
	for _, c := range qr.Trace.Children {
		names[c.Name] = true
	}
	if !names["plan"] || !names["cache"] {
		t.Fatalf("trace lacks serving-tier spans: children %v", qr.Trace.Children)
	}

	_, body = postQuery(t, ts.URL, `{"query": "a red car"}`)
	var plain QueryResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("undebugged response echoed a trace")
	}
}

// TestDebugQueriesInspector pins the slow log: served queries appear
// slowest-first with their traces, the endpoint enforces GET with 405 +
// Allow, and none of it touches the serving metrics, latency histogram, or
// result cache.
func TestDebugQueriesInspector(t *testing.T) {
	fb := &fakeBackend{}
	srv := New(fb, Config{CacheSize: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, q := range []string{"a", "b", "c"} {
		resp, body := postQuery(t, ts.URL, fmt.Sprintf(`{"query": %q}`, q))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", q, resp.StatusCode, body)
		}
	}

	errsBefore := srv.metrics.errors.Load()
	latBefore := srv.metrics.latency.count
	cacheBefore := srv.cache.stats()

	var dq debugQueriesResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/debug/queries"), &dq); err != nil {
		t.Fatal(err)
	}
	if dq.Capacity != slowLogSize {
		t.Fatalf("capacity = %d, want %d", dq.Capacity, slowLogSize)
	}
	if len(dq.Queries) != 3 {
		t.Fatalf("slow log holds %d entries, want 3", len(dq.Queries))
	}
	for i, e := range dq.Queries {
		if e.Trace == nil || e.Trace.Name != "query" {
			t.Fatalf("entry %d has no trace: %+v", i, e)
		}
		if e.PlanKind == "" {
			t.Fatalf("entry %d has no plan kind", i)
		}
		if i > 0 && e.DurationMs > dq.Queries[i-1].DurationMs {
			t.Fatalf("slow log not sorted slowest-first: %v then %v",
				dq.Queries[i-1].DurationMs, e.DurationMs)
		}
	}

	// Method enforcement, debug-tier flavor: 405 + Allow, but no error
	// counted — observability probes must not pollute serving metrics.
	resp, err := http.Post(ts.URL+"/debug/queries", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/queries: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Fatalf("Allow = %q, want GET", allow)
	}

	if got := srv.metrics.errors.Load(); got != errsBefore {
		t.Fatalf("debug traffic counted %d errors", got-errsBefore)
	}
	if got := srv.metrics.latency.count; got != latBefore {
		t.Fatalf("debug traffic observed into the latency histogram (%d -> %d)", latBefore, got)
	}
	if got := srv.cache.stats(); got != cacheBefore {
		t.Fatalf("debug traffic touched the result cache: %+v -> %+v", cacheBefore, got)
	}
}

// TestStageMetrics pins lovod_stage_seconds: plan and cache record on every
// query, stage1 and rerank only on executions (the cache hit adds none).
func TestStageMetrics(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{CacheSize: 4}))
	defer ts.Close()

	postQuery(t, ts.URL, `{"query": "a red car"}`) // miss: executes
	postQuery(t, ts.URL, `{"query": "a red car"}`) // hit: served from cache
	metrics := string(getBody(t, ts.URL+"/metrics"))

	for _, want := range []string{
		`lovod_stage_seconds_count{stage="plan"} 2`,
		`lovod_stage_seconds_count{stage="cache"} 2`,
		`lovod_stage_seconds_count{stage="stage1"} 1`,
		`lovod_stage_seconds_count{stage="rerank"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestErrorKindCounters pins lovod_query_errors_total{kind}: every kind is
// present from the first scrape, and validation / not-ready / internal
// failures land under the right label.
func TestErrorKindCounters(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{CacheSize: 4}))
	defer ts.Close()

	metrics := string(getBody(t, ts.URL+"/metrics"))
	for _, kind := range errorKinds {
		if !strings.Contains(metrics, fmt.Sprintf("lovod_query_errors_total{kind=%q} 0", kind)) {
			t.Errorf("fresh /metrics lacks zero-valued kind %q", kind)
		}
	}

	postQuery(t, ts.URL, `{"query": ""}`)                             // validation
	postQuery(t, ts.URL, `{"query": "x", "options": {"fast_k": -1}}`) // validation
	fb.notBuilt = true
	postQuery(t, ts.URL, `{"query": "x"}`) // not_ready
	fb.notBuilt = false
	fb.queryErr = errors.New("disk on fire")
	postQuery(t, ts.URL, `{"query": "uncached"}`) // internal
	fb.queryErr = nil

	metrics = string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		`lovod_query_errors_total{kind="validation"} 2`,
		`lovod_query_errors_total{kind="not_ready"} 1`,
		`lovod_query_errors_total{kind="internal"} 1`,
		`lovod_query_errors_total{kind="backend_down"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q\n%s", want, metrics)
		}
	}
}

// TestDebugHandlerPprof pins the opt-in debug listener: /debug/queries and
// the pprof surface answer GET, reject other methods with 405 + Allow, and
// pprof actually serves a profile.
func TestDebugHandlerPprof(t *testing.T) {
	fb := &fakeBackend{}
	srv := New(fb, Config{CacheSize: 4})
	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()

	for _, path := range []string{"/debug/queries", "/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		pr, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		if pr.StatusCode != http.StatusMethodNotAllowed || pr.Header.Get("Allow") != http.MethodGet {
			t.Errorf("POST %s: status %d Allow %q, want 405 GET", path, pr.StatusCode, pr.Header.Get("Allow"))
		}
	}
}

// TestBatchTracedAndMetered: /query/batch runs the pipeline /query runs —
// one /debug/queries entry for the whole batch whose trace holds each
// query's plan and cache spans and the executed stage 1, and the per-query
// plan/cache stage series count every query of it.
func TestBatchTracedAndMetered(t *testing.T) {
	_, ds, ts := boot(t, 16)
	texts := []string{ds.Queries[0].Text, ds.Queries[1].Text}
	if resp, data := postJSON(t, ts.URL+"/query/batch", batchRequest{Queries: texts}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var dq debugQueriesResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/debug/queries"), &dq); err != nil {
		t.Fatal(err)
	}
	if len(dq.Queries) != 1 {
		t.Fatalf("slow log holds %d entries for one batch, want 1", len(dq.Queries))
	}
	e := dq.Queries[0]
	if e.Query != texts[0] || e.BatchSize != len(texts) || e.PlanKind == "" || e.Trace == nil {
		t.Fatalf("batch entry malformed: %+v", e)
	}
	names := map[string]int{}
	var walk func(*SpanJSON)
	walk = func(sp *SpanJSON) {
		names[sp.Name]++
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(e.Trace)
	if names["plan"] != 2 || names["cache"] != 2 || names["stage1"] == 0 {
		t.Fatalf("batch trace must hold a plan and a cache span per query and a stage1 span, got %v", names)
	}
	metrics := string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		`lovod_stage_seconds_count{stage="plan"} 2`,
		`lovod_stage_seconds_count{stage="cache"} 2`,
		`lovod_stage_seconds_count{stage="stage1"} 2`,
		"lovod_batch_queries_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
