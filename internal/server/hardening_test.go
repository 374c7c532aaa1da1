package server

import (
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
	"repro/internal/video"
)

// fakeBackend is a controllable Backend: QueryPlanned can be gated to hold
// a request in flight, and both query paths record the rerank width the
// server handed them.
type fakeBackend struct {
	mu           sync.Mutex
	queryCalls   int
	queryWorkers []int
	batchWorkers []int
	planOpts     []core.QueryOptions

	entered chan struct{} // receives one token per QueryPlanned entry, if set
	release chan struct{} // QueryPlanned blocks until closed, if set

	notBuilt bool  // Status reports Built=false, so queries answer 503
	queryErr error // QueryPlanned fails with this, if set
}

func (f *fakeBackend) PlanQueryCtx(ctx context.Context, text string, opts core.QueryOptions) (core.Plan, error) {
	if err := core.ValidateMinRecall(opts.MinRecall); err != nil {
		return core.Plan{}, err
	}
	f.mu.Lock()
	f.planOpts = append(f.planOpts, opts)
	f.mu.Unlock()
	return core.Config{}.Resolved().FixedPlan(opts), nil
}

func (f *fakeBackend) QueryPlanned(ctx context.Context, text string, plan core.Plan, workers int) (*core.Result, error) {
	f.mu.Lock()
	f.queryCalls++
	f.queryWorkers = append(f.queryWorkers, workers)
	f.mu.Unlock()
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.release != nil {
		<-f.release
	}
	if f.queryErr != nil {
		return nil, f.queryErr
	}
	return &core.Result{CandidateFrames: 1}, nil
}

func (f *fakeBackend) QueryBatchPlanned(ctx context.Context, texts []string, plans []core.Plan, workers, clients int) ([]*core.Result, error) {
	f.mu.Lock()
	f.batchWorkers = append(f.batchWorkers, workers)
	f.mu.Unlock()
	out := make([]*core.Result, len(texts))
	for i := range out {
		out[i] = &core.Result{}
	}
	return out, nil
}

func (f *fakeBackend) Ingest(*video.Video) error { return nil }

func (f *fakeBackend) Status() shard.Status {
	return shard.Status{Gen: 1, Built: !f.notBuilt, Entities: 1}
}

// TestOptionValidationRejectsBadKnobs pins the input-validation hardening:
// negative or absurd integer knobs and a min_recall outside (0, 1] must
// answer 400 with an error naming the offending field, on both query
// endpoints, without the backend ever being consulted.
func TestOptionValidationRejectsBadKnobs(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{CacheSize: 4}))
	defer ts.Close()
	cases := []struct {
		name  string
		opts  QueryOptionsJSON
		field string
	}{
		{"negative fast_k", QueryOptionsJSON{FastK: -1}, "fast_k"},
		{"absurd fast_k", QueryOptionsJSON{FastK: maxKnob + 1}, "fast_k"},
		{"negative top_n", QueryOptionsJSON{TopN: -3}, "top_n"},
		{"absurd top_n", QueryOptionsJSON{TopN: maxKnob + 1}, "top_n"},
		{"negative rerank_frames", QueryOptionsJSON{RerankFrames: -1}, "rerank_frames"},
		{"absurd rerank_frames", QueryOptionsJSON{RerankFrames: maxKnob + 1}, "rerank_frames"},
		{"negative min_recall", QueryOptionsJSON{MinRecall: -0.5}, "min_recall"},
		{"min_recall above one", QueryOptionsJSON{MinRecall: 1.01}, "min_recall"},
	}
	for _, c := range cases {
		for _, path := range []string{"/query", "/query/batch"} {
			var resp *http.Response
			var data []byte
			if path == "/query" {
				resp, data = postJSON(t, ts.URL+path, queryRequest{Query: "a red car", Options: c.opts})
			} else {
				resp, data = postJSON(t, ts.URL+path, batchRequest{Queries: []string{"a red car"}, Options: c.opts})
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d want 400: %s", c.name, path, resp.StatusCode, data)
				continue
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("%s %s: non-JSON error body %q", c.name, path, data)
			}
			if !strings.Contains(e["error"], c.field) {
				t.Errorf("%s %s: error %q must name field %s", c.name, path, e["error"], c.field)
			}
		}
	}
	fb.mu.Lock()
	calls := fb.queryCalls
	fb.mu.Unlock()
	if calls != 0 {
		t.Fatalf("invalid options must never reach the backend, got %d calls", calls)
	}
	// The boundary values are legal: knobs at the cap, min_recall exactly 1.
	resp, data := postJSON(t, ts.URL+"/query",
		queryRequest{Query: "a red car", Options: QueryOptionsJSON{FastK: maxKnob, MinRecall: 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("boundary options must pass, got %d: %s", resp.StatusCode, data)
	}
}

// TestOversizedBodiesAnswer413: every body-reading endpoint stops reading
// at its limit and answers 413 naming it — a hostile request costs bounded
// memory — without the backend ever being consulted.
func TestOversizedBodiesAnswer413(t *testing.T) {
	fb := &fakeBackend{}
	srv := New(fb, Config{CacheSize: 4})
	for _, c := range []struct {
		path  string
		limit int
	}{
		{"/query", maxQueryBody},
		{"/query/batch", maxQueryBody},
		{"/ingest", maxIngestBody},
	} {
		// Valid JSON all the way: only the size can be the reason to refuse.
		// (A recorder, not a socket: a server that answers mid-upload may
		// reset the connection before a real client reads the reply.)
		body := `{"query":"` + strings.Repeat("a", c.limit) + `"}`
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d want 413: %s", c.path, rec.Code, rec.Body)
		}
		if want := fmt.Sprint(c.limit); !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: error %q must name the %s-byte limit", c.path, rec.Body, want)
		}
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.queryCalls != 0 || len(fb.batchWorkers) != 0 {
		t.Fatal("an oversized body must never reach the backend")
	}
}

// TestOversizedBatchAnswers413: a /query/batch of more than maxBatchQueries
// queries — however small its body — answers 413 naming the query limit
// without planning a single query; a batch at the limit is served.
func TestOversizedBatchAnswers413(t *testing.T) {
	fb := &fakeBackend{}
	srv := New(fb, Config{CacheSize: 4})
	batch := func(n int) *httptest.ResponseRecorder {
		queries := make([]string, n)
		for i := range queries {
			queries[i] = fmt.Sprintf("a red car %d", i)
		}
		body, err := json.Marshal(batchRequest{Queries: queries})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", strings.NewReader(string(body))))
		return rec
	}
	rec := batch(maxBatchQueries + 1)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-query batch: status %d want 413: %s", maxBatchQueries+1, rec.Code, rec.Body)
	}
	if want := fmt.Sprintf("%d-query limit", maxBatchQueries); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("error %q must name the %s", rec.Body, want)
	}
	fb.mu.Lock()
	planned := len(fb.planOpts)
	fb.mu.Unlock()
	if planned != 0 {
		t.Fatalf("an oversized batch must never reach the backend, %d queries planned", planned)
	}
	if rec := batch(maxBatchQueries); rec.Code != http.StatusOK {
		t.Fatalf("%d-query batch: status %d want 200: %s", maxBatchQueries, rec.Code, rec.Body)
	}
}

// TestDefaultMinRecallApplied: a server booted with a default accuracy
// bound applies it to requests that set no min_recall of their own, and a
// request's explicit bound always wins.
func TestDefaultMinRecallApplied(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{DefaultMinRecall: 0.9}))
	defer ts.Close()
	if resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: "a red car"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("unbounded query: %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/query",
		queryRequest{Query: "a red car", Options: QueryOptionsJSON{MinRecall: 0.5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("bounded query: %d: %s", resp.StatusCode, data)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if len(fb.planOpts) != 2 {
		t.Fatalf("planned %d queries, want 2", len(fb.planOpts))
	}
	if fb.planOpts[0].MinRecall != 0.9 {
		t.Errorf("server default not applied: planned with MinRecall %v, want 0.9", fb.planOpts[0].MinRecall)
	}
	if fb.planOpts[1].MinRecall != 0.5 {
		t.Errorf("request bound must override the default: got %v, want 0.5", fb.planOpts[1].MinRecall)
	}
}

// TestPlanReporting: every answer echoes the resolved plan, /stats counts
// chosen plans by kind, and /metrics exports lovod_plan_chosen_total.
func TestPlanReporting(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{CacheSize: 4}))
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: "a red car"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan.Kind != string(core.PlanFixed) || qr.Plan.FastK <= 0 {
		t.Fatalf("response must echo the resolved plan, got %+v", qr.Plan)
	}
	_, _ = postJSON(t, ts.URL+"/query/batch", batchRequest{Queries: []string{"a truck"}})

	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.Plans[string(core.PlanFixed)] != 2 {
		t.Fatalf("/stats must count both chosen plans by kind, got %v", st.Plans)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(raw), `lovod_plan_chosen_total{kind="fixed"} 2`) {
		t.Fatalf("metrics missing plan counter:\n%s", raw)
	}
}

// TestBatchNarrowsRerankWidthUnderOverlap pins the fixed guard: while a
// /query holds the serving tier, an overlapping /query/batch must hand the
// backend Workers=1 — before the fix, batches never touched the in-flight
// counter and ran NumCPU-wide grounding pools per query.
func TestBatchNarrowsRerankWidthUnderOverlap(t *testing.T) {
	fb := &fakeBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	ts := httptest.NewServer(New(fb, Config{CacheSize: 0}))
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := postJSON(t, ts.URL+"/query", queryRequest{Query: "a red car"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocked query status %d", resp.StatusCode)
		}
	}()
	<-fb.entered // the lone /query is now inside the backend

	resp, _ := postJSON(t, ts.URL+"/query/batch", batchRequest{Queries: []string{"a truck", "a person"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	close(fb.release)
	<-done

	fb.mu.Lock()
	defer fb.mu.Unlock()
	if len(fb.batchWorkers) != 1 || fb.batchWorkers[0] != 1 {
		t.Fatalf("overlapped batch must pass Workers=1, got %v", fb.batchWorkers)
	}
	// The lone /query arrived first with nothing else in flight: full width.
	if fb.queryWorkers[0] != 0 {
		t.Fatalf("lone query must keep full rerank width, got %d", fb.queryWorkers[0])
	}
}

// TestLoneBatchKeepsFullWidth: a batch with no overlapping request must not
// be narrowed by the server (the backend's own client pool decides).
func TestLoneBatchKeepsFullWidth(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{CacheSize: 0}))
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/query/batch", batchRequest{Queries: []string{"a truck", "a person"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if len(fb.batchWorkers) != 1 || fb.batchWorkers[0] != 0 {
		t.Fatalf("lone batch must pass Workers=0, got %v", fb.batchWorkers)
	}
}

// TestSingleFlightCoalescesDuplicateMisses fires many concurrent identical
// cold queries and checks the backend computed exactly once, every caller
// got an answer, and the coalesced waiters are surfaced in CacheStats.
func TestSingleFlightCoalescesDuplicateMisses(t *testing.T) {
	const clients = 8
	fb := &fakeBackend{entered: make(chan struct{}, clients), release: make(chan struct{})}
	srv := New(fb, Config{CacheSize: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: "a red car"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	<-fb.entered // the leader is inside the backend; everyone else must wait
	// Give the remaining requests a moment to park on the flight (any that
	// arrive after release simply hit the cache — also not a second call).
	time.Sleep(50 * time.Millisecond)
	close(fb.release)
	wg.Wait()

	fb.mu.Lock()
	calls := fb.queryCalls
	fb.mu.Unlock()
	if calls != 1 {
		t.Fatalf("backend computed %d times for %d identical queries, want 1", calls, clients)
	}
	cs := srv.cache.stats()
	if cs.Coalesced+cs.Hits != clients-1 {
		t.Fatalf("coalesced (%d) + hits (%d) must cover the %d non-leaders", cs.Coalesced, cs.Hits, clients-1)
	}
	if cs.Coalesced == 0 {
		t.Fatal("no waiter coalesced — the herd recomputed or never overlapped")
	}
}

// TestFlightPanicDoesNotWedgeKey: a leader whose computation panics must
// not leave the flight entry behind — waiters get an error, and the next
// request for the same key computes fresh instead of hanging forever.
func TestFlightPanicDoesNotWedgeKey(t *testing.T) {
	g := newFlightGroup()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate to the leader")
			}
		}()
		_, _, _ = g.do("k", func() (*core.Result, error) { panic("backend exploded") })
	}()
	done := make(chan error, 1)
	go func() {
		_, coalesced, err := g.do("k", func() (*core.Result, error) { return &core.Result{}, nil })
		if coalesced {
			err = fmt.Errorf("post-panic call wrongly coalesced onto the dead leader")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged: request after a panicked leader never completed")
	}
}

// TestUniformMethodGuards: every endpoint must reject the wrong method with
// 405 — /healthz and /metrics historically accepted anything.
func TestUniformMethodGuards(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Config{}))
	defer ts.Close()
	cases := []struct {
		method, path string
	}{
		{http.MethodGet, "/query"},
		{http.MethodDelete, "/query"},
		{http.MethodGet, "/query/batch"},
		{http.MethodPost, "/stats"},
		{http.MethodPost, "/healthz"},
		{http.MethodDelete, "/healthz"},
		{http.MethodPost, "/metrics"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d want 405", c.method, c.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Errorf("%s %s: missing Allow header", c.method, c.path)
		}
	}
}

// TestStatsAndMetricsReportReplicas mounts a replicated engine and checks
// the serving tier surfaces per-group replica health and reads.
func TestStatsAndMetricsReportReplicas(t *testing.T) {
	ds := datasets.ActivityNetQA(datasets.Config{Seed: 7, Scale: 0.04})
	eng, err := shard.NewReplicated(2, 2, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	eng.FailReplica(1, 0)
	ts := httptest.NewServer(New(eng, Config{CacheSize: 8, Shards: eng.Shards()}))
	defer ts.Close()

	_, _ = postJSON(t, ts.URL+"/query", queryRequest{Query: ds.Queries[0].Text})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Replicas != 2 || len(st.ReplicaGroups) != 2 || len(st.ReplicaGroups[0]) != 2 {
		t.Fatalf("replica stats malformed: replicas=%d groups=%+v", st.Replicas, st.ReplicaGroups)
	}
	if st.ReplicaGroups[1][0].Healthy || !st.ReplicaGroups[1][1].Healthy {
		t.Fatalf("replica health not surfaced: %+v", st.ReplicaGroups[1])
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`lovod_replica_healthy{group="1",replica="0"} 0`,
		`lovod_replica_healthy{group="0",replica="0"} 1`,
		`lovod_replica_reads_total{group="0",replica="0"}`,
		"lovod_cache_coalesced_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentQueryAndBatchDuringIngestReplicated is the serving-tier
// acceptance race test: concurrent /query and /query/batch traffic over a
// replicated engine while ingest and a rebuild proceed, plus a replica
// kill/revive — run with -race.
func TestConcurrentQueryAndBatchDuringIngestReplicated(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 13, Scale: 0.04})
	eng, err := shard.NewReplicated(2, 2, core.Config{Seed: 13})
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
	ts := httptest.NewServer(New(eng, Config{CacheSize: 32, Shards: eng.Shards()}))
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.FailReplica(1, 1)
		eng.ReviveReplica(1, 1)
	}()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				text := ds.Queries[(c+i)%len(ds.Queries)].Text
				resp, data := postJSON(t, ts.URL+"/query", queryRequest{Query: text})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				texts := []string{
					ds.Queries[(c+i)%len(ds.Queries)].Text,
					ds.Queries[(c+i+1)%len(ds.Queries)].Text,
				}
				resp, data := postJSON(t, ts.URL+"/query/batch", batchRequest{Queries: texts})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch status %d: %s", resp.StatusCode, data)
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
	if st.QueriesTotal != 8 || st.BatchTotal != 12 {
		t.Fatalf("queries_total = %d (want 8), batch_total = %d (want 12)", st.QueriesTotal, st.BatchTotal)
	}
	if st.Ingest.Videos != len(ds.Videos) {
		t.Fatalf("ingested %d videos want %d", st.Ingest.Videos, len(ds.Videos))
	}
}
