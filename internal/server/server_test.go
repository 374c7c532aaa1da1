package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/shard"
)

// boot builds a 2-shard engine over a tiny Bellevue slice, fully ingested
// and indexed, plus the dataset for query texts.
func boot(t *testing.T, cacheSize int) (*shard.Engine, *datasets.Dataset, *httptest.Server) {
	t.Helper()
	ds := datasets.ActivityNetQA(datasets.Config{Seed: 7, Scale: 0.04})
	eng, err := shard.New(2, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{CacheSize: cacheSize, Shards: eng.Shards()}))
	t.Cleanup(ts.Close)
	return eng, ds, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestQueryEndpointMatchesEngine(t *testing.T) {
	eng, ds, ts := boot(t, 16)
	text := ds.Queries[0].Text
	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: text})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	want, err := core.Query(context.Background(), eng, text, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Objects) != len(want.Objects) {
		t.Fatalf("got %d objects, want %d", len(qr.Objects), len(want.Objects))
	}
	for i, o := range qr.Objects {
		w := want.Objects[i]
		if o.VideoID != w.VideoID || o.FrameIdx != w.FrameIdx || o.Score != w.Score || o.PatchID != w.PatchID {
			t.Fatalf("object %d: got %+v want %+v", i, o, w)
		}
	}
	if qr.Cached {
		t.Fatal("first answer must not be cached")
	}
}

func TestCacheHitAndIngestInvalidation(t *testing.T) {
	eng, ds, ts := boot(t, 16)
	text := ds.Queries[0].Text

	_, _ = postJSON(t, ts.URL+"/query", queryRequest{Query: text})
	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: text})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Cached {
		t.Fatal("repeat query must hit the cache")
	}

	// Different options key separately.
	_, data = postJSON(t, ts.URL+"/query", queryRequest{Query: text, Options: QueryOptionsJSON{TopN: 3}})
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatal("different options must miss the cache")
	}

	// Ingest advances the generation; the cached answer is now stale.
	extra := datasets.Bellevue(datasets.Config{Seed: 99, Scale: 0.02})
	v := extra.Videos[0]
	v.ID = 200
	if err := eng.Ingest(&v); err != nil {
		t.Fatal(err)
	}
	_, data = postJSON(t, ts.URL+"/query", queryRequest{Query: text})
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatal("ingest must invalidate the cache")
	}

	var st StatsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
	if st.QueriesTotal != 4 {
		t.Fatalf("queries_total = %d want 4", st.QueriesTotal)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ds, ts := boot(t, 16)
	texts := []string{ds.Queries[0].Text, ds.Queries[1].Text, ds.Queries[0].Text}
	resp, data := postJSON(t, ts.URL+"/query/batch", batchRequest{Queries: texts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d", len(br.Results))
	}
	if len(br.Results[0].Objects) == 0 || len(br.Results[1].Objects) == 0 {
		t.Fatal("batch answers must carry objects")
	}
	// Identical texts at different positions answer identically.
	if fmt.Sprint(br.Results[0].Objects) != fmt.Sprint(br.Results[2].Objects) {
		t.Fatal("duplicate queries in one batch must answer identically")
	}
	// A second batch is served fully from cache.
	_, data = postJSON(t, ts.URL+"/query/batch", batchRequest{Queries: texts})
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if !r.Cached {
			t.Fatalf("result %d of repeat batch not cached", i)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, _, ts := boot(t, 4)
	cases := []struct {
		name   string
		status int
		do     func() *http.Response
	}{
		{"empty query", http.StatusBadRequest, func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/query", queryRequest{Query: "  "})
			return r
		}},
		{"unknown terms", http.StatusBadRequest, func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/query", queryRequest{Query: "zorgon blaxt"})
			return r
		}},
		{"bad json", http.StatusBadRequest, func() *http.Response {
			r, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			return r
		}},
		{"wrong method", http.StatusMethodNotAllowed, func() *http.Response {
			r, err := http.Get(ts.URL + "/query")
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			return r
		}},
		{"empty batch", http.StatusBadRequest, func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/query/batch", batchRequest{})
			return r
		}},
	}
	for _, c := range cases {
		if got := c.do().StatusCode; got != c.status {
			t.Errorf("%s: status %d want %d", c.name, got, c.status)
		}
	}
}

func TestNotBuiltReturns503(t *testing.T) {
	eng, err := shard.New(2, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ds := datasets.Bellevue(datasets.Config{Seed: 7, Scale: 0.03})
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{CacheSize: 4}))
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/query", queryRequest{Query: ds.Queries[0].Text})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d want 503", resp.StatusCode)
	}
	// Healthz still answers (liveness, not readiness).
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ds, ts := boot(t, 8)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "ok" || hz["built"] != true {
		t.Fatalf("healthz: %v", hz)
	}

	_, _ = postJSON(t, ts.URL+"/query", queryRequest{Query: ds.Queries[0].Text})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"lovod_queries_total 1",
		"lovod_cache_misses_total 1",
		"# TYPE lovod_query_latency_seconds histogram",
		`lovod_query_latency_seconds_bucket{le="+Inf"} 1`,
		"lovod_query_latency_seconds_count 1",
		"lovod_index_entities",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentHTTPQueriesDuringIngest drives concurrent /query requests
// while ingest and a rebuild proceed on the engine — the acceptance race
// test for the serving tier (run with -race).
func TestConcurrentHTTPQueriesDuringIngest(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 13, Scale: 0.04})
	eng, err := shard.New(3, core.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	half := (len(ds.Videos) + 1) / 2
	for i := 0; i < half; i++ {
		if err := eng.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{CacheSize: 32, Shards: 3}))
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := half; i < len(ds.Videos); i++ {
			if err := eng.Ingest(&ds.Videos[i]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := eng.BuildIndex(); err != nil {
			t.Error(err)
		}
	}()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				text := ds.Queries[(c+i)%len(ds.Queries)].Text
				resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: text})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.QueriesTotal != 20 {
		t.Fatalf("queries_total = %d want 20", st.QueriesTotal)
	}
	if st.Ingest.Videos != len(ds.Videos) {
		t.Fatalf("ingested %d videos want %d", st.Ingest.Videos, len(ds.Videos))
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.put("k", 1, &core.Result{})
	if _, ok := c.get("k", 1); ok {
		t.Fatal("disabled cache must never hit")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	r := &core.Result{}
	c.put("a", 1, r)
	c.put("b", 1, r)
	c.put("c", 1, r) // evicts a
	if _, ok := c.get("a", 1); ok {
		t.Fatal("a must be evicted")
	}
	if _, ok := c.get("b", 1); !ok {
		t.Fatal("b must survive")
	}
	st := c.stats()
	if st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.observe(2 * 1e6) // 2ms in ns
	}
	p50 := h.quantile(0.5)
	if p50 < 0.001 || p50 > 0.0025 {
		t.Fatalf("p50 = %v want within (1ms, 2.5ms]", p50)
	}
	if h.quantile(0.99) < p50 {
		t.Fatal("p99 < p50")
	}
}

// TestHistogramQuantileEmpty: no observations means no estimate — zero,
// not NaN and not a bucket bound.
func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.quantile(q); got != 0 {
			t.Fatalf("empty histogram quantile(%v) = %v, want 0", q, got)
		}
	}
}

// TestHistogramQuantileSingleObservation: every quantile of a one-sample
// histogram must land inside the sample's own bucket (3ms -> (2.5ms, 5ms]).
func TestHistogramQuantileSingleObservation(t *testing.T) {
	h := newHistogram()
	h.observe(3 * time.Millisecond)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.quantile(q)
		if got <= 0.0025 || got > 0.005 {
			t.Fatalf("quantile(%v) = %v, want within (2.5ms, 5ms]", q, got)
		}
	}
	if h.quantile(0.99) < h.quantile(0.5) {
		t.Fatal("quantiles must be monotone in q")
	}
}

// TestHistogramQuantileAllMassInInfBucket: observations beyond the largest
// finite bound land in the +Inf bucket, whose estimate extrapolates to
// twice the last bound — every quantile must stay within (10s, 20s], never
// fall back below the data.
func TestHistogramQuantileAllMassInInfBucket(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 10; i++ {
		h.observe(30 * time.Second)
	}
	top := latencyBuckets[len(latencyBuckets)-1]
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.quantile(q)
		if got <= top || got > 2*top {
			t.Fatalf("quantile(%v) = %v, want within (%v, %v]", q, got, top, 2*top)
		}
	}
	if p50, p99 := h.quantile(0.5), h.quantile(0.99); p99 < p50 {
		t.Fatalf("p99 (%v) < p50 (%v)", p99, p50)
	}
}

// TestHistogramQuantileMixedTail: mass split between a finite bucket and
// +Inf — the median must come from the finite bucket, the p99 from the
// extrapolated tail.
func TestHistogramQuantileMixedTail(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 90; i++ {
		h.observe(2 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(time.Minute)
	}
	if p50 := h.quantile(0.5); p50 < 0.001 || p50 > 0.0025 {
		t.Fatalf("p50 = %v want within (1ms, 2.5ms]", p50)
	}
	top := latencyBuckets[len(latencyBuckets)-1]
	if p99 := h.quantile(0.99); p99 <= top || p99 > 2*top {
		t.Fatalf("p99 = %v want within (%v, %v]", p99, top, 2*top)
	}
}
