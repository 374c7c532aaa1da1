package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/video"
)

// referenceBody is what encoding/json's Encoder writes for v — the bytes
// the encoder must reproduce — or its error.
func referenceBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// sameBody fails unless the encoder and encoding/json agree on v: the same
// bytes, or both an error.
func sameBody(t *testing.T, what string, v any, fill func(e *encoder)) {
	t.Helper()
	want, wantErr := referenceBody(v)
	e := &encoder{}
	fill(e) // as reply does, trailing newline included
	got, err := append(e.b, '\n'), e.err
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: encoder error %v, encoding/json error %v", what, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: encoder and encoding/json differ:\n%s\n%s", what, got, want)
	}
}

// wireResponse is the QueryResponse a served answer stands for — the value
// whose encoding/json bytes the spliced reply must reproduce.
func wireResponse(res *core.Result, plan core.Plan, cached bool, trace *SpanJSON) QueryResponse {
	objs := make([]ObjectJSON, len(res.Objects))
	for i, o := range res.Objects {
		objs[i] = ObjectJSON{
			VideoID:  o.VideoID,
			FrameIdx: o.FrameIdx,
			Box:      BoxJSON{X: o.Box.X, Y: o.Box.Y, W: o.Box.W, H: o.Box.H},
			Score:    o.Score,
			PatchID:  o.PatchID,
		}
	}
	return QueryResponse{
		Objects:         objs,
		CandidateFrames: res.CandidateFrames,
		FastSearchMs:    float64(res.FastSearch.Microseconds()) / 1000,
		RerankMs:        float64(res.Rerank.Microseconds()) / 1000,
		Cached:          cached,
		Plan:            toPlanJSON(plan),
		Trace:           trace,
	}
}

// FuzzEncodeResponse is the encoder's differential pin: for arbitrary
// answers, plans and traces, a /query or /query/batch body spliced from
// fragments encoded separately — once, as the server encodes each computed
// answer — is byte for byte encoding/json's for the QueryResponse it stands
// for, and it fails exactly where encoding/json does (a NaN or ±Inf
// anywhere).
func FuzzEncodeResponse(f *testing.F) {
	type seed struct {
		x, y, w, h     float64
		score          float32
		us             int64
		video, patch   int64
		kind, detail   string
		flags, objects uint8
	}
	for _, s := range []seed{
		{0.25, 0.5, 0.125, 0.0625, 0.71, 1234, 3, 12345, "fixed", "", 0, 3},
		{math.Copysign(0, -1), 0, -0.5, 1, float32(math.Copysign(0, -1)), 0, 0, 0, "pinned", "", 0xff, 1},
		{5e-324, 2.2250738585072014e-308, 1e-7, 1e-6, 1e-45, 1, -1, -9, "unknown-kind", "miss", 1, 2},
		{1e21, 9.999999999999999e20, 1e20, math.MaxFloat64, math.MaxFloat32, math.MaxInt64, math.MaxInt64, math.MinInt64, "k\u00e9y", "hit", 6, 4},
		{0.1, 0.2, 0.3, 0.4, 1e-7, 123456789125, 7, 8, "<a href='x'>&amp;</a>", "frames=8 tokens=52", 0x10, 1},
		{1, 2, 3, 4, 0.5, -2500, 1, 2, "line \u2028 sep \u2029 para \"quoted\" \\ \t\n\x00\x1f\x7f", "\xff\xfe bad utf-8 \xc3\x28", 0x11, 0},
		{math.NaN(), 0, 0, 0, 0.5, 0, 1, 1, "fixed", "", 0, 1},
		{0, 0, 0, 0, float32(math.Inf(1)), 0, 1, 1, "fixed", "", 0, 1},
		{0, math.Inf(-1), 0, 0, 0.5, math.MinInt64, 1, 1, "fixed", "", 0, 1},
		{0, 0, 0, math.NaN(), 0.5, 0, 1, 1, "fixed", "", 0, 1},
	} {
		f.Add(s.x, s.y, s.w, s.h, s.score, s.us, s.video, s.patch, s.kind, s.detail, s.flags, s.objects)
	}
	f.Fuzz(func(t *testing.T, x, y, w, h float64, score float32, us, vid, patch int64, kind, detail string, flags, objects uint8) {
		res := &core.Result{
			CandidateFrames: int(vid % 1000),
			FastSearch:      time.Duration(us) * time.Microsecond / 7,
			Rerank:          time.Duration(us),
		}
		plan := core.Plan{
			Kind:         core.PlanKind(kind),
			Exact:        flags&2 != 0,
			FastK:        int(patch % 4096),
			ShardK:       int(vid),
			RerankFrames: int(flags),
			TopN:         int(objects),
			SkipRerank:   flags&4 != 0,
		}
		if flags&32 != 0 {
			plan.NProbe, plan.Ef = int(objects)+1, int(flags)
		}
		if flags&64 == 0 { // otherwise Objects stays nil: still "[]" on the wire
			res.Objects = make([]core.ResultObject, objects%8)
		}
		for i := range res.Objects {
			d := float64(i)
			res.Objects[i] = core.ResultObject{
				VideoID:  int(vid) + i,
				FrameIdx: int(patch) - i,
				Box:      video.Box{X: x + d, Y: y * d, W: w / (d + 1), H: h - d},
				Score:    score * float32(i+1),
				PatchID:  patch ^ int64(i),
			}
		}
		var trace *SpanJSON
		if flags&16 != 0 {
			ms := float64(us) / 1000
			trace = &SpanJSON{Name: kind, StartMs: 0, DurationMs: ms, Children: []*SpanJSON{
				{Name: "stage1", Detail: detail, StartMs: ms / 7, DurationMs: ms / 2},
			}}
		}
		frag := encodeFragment(res)
		lone := answer{frag: frag, cached: flags&1 != 0, plan: plan, trace: trace}
		sameBody(t, "query", wireResponse(res, plan, lone.cached, trace), func(e *encoder) { e.answer(&lone) })

		// A second answer of one object, and the first answer served again
		// as a hit, share nothing but the fragments they splice.
		head := &core.Result{Objects: res.Objects[:min(len(res.Objects), 1)], FastSearch: res.Rerank}
		otherPlan := plan
		otherPlan.Kind = core.PlanKind(detail)
		batch := []answer{lone, {frag: encodeFragment(head), plan: otherPlan}, {frag: frag, cached: true, plan: plan}}
		want := batchResponse{Results: []QueryResponse{
			wireResponse(res, plan, lone.cached, trace),
			wireResponse(head, otherPlan, false, nil),
			wireResponse(res, plan, true, nil),
		}}
		sameBody(t, "batch", want, func(e *encoder) { e.answers(batch) })
	})
}

// nanBackend answers every query with one object whose score is not a
// number, as a corrupted index or a broken kernel might.
type nanBackend struct{ fakeBackend }

func (b *nanBackend) QueryBatchPlanned(ctx context.Context, texts []string, plans []core.Plan, workers, clients int) ([]*core.Result, error) {
	out := make([]*core.Result, len(texts))
	for i := range texts {
		out[i] = &core.Result{Objects: []core.ResultObject{{
			VideoID: 1, Box: video.Box{W: 1, H: 1}, Score: float32(math.NaN()), PatchID: 7,
		}}}
	}
	return out, nil
}

// TestNonFiniteAnswerIs500: a NaN in an answer cannot be written as JSON,
// so both query endpoints answer a 500 JSON error counted as "internal" —
// not a 200 with an empty body — and the answer never counts as served.
func TestNonFiniteAnswerIs500(t *testing.T) {
	ts := httptest.NewServer(New(&nanBackend{}, Config{CacheSize: 4}))
	defer ts.Close()
	for i, req := range []struct{ path, body string }{
		{"/query", `{"query": "a red car"}`},
		{"/query/batch", `{"queries": ["a truck", "a bus"]}`},
		{"/query", `{"query": "a red car"}`}, // the cached NaN answer fails the same way
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(body["error"], "NaN") {
			t.Fatalf("request %d (%s): status %d, body %v (%v); want a 500 naming the NaN", i, req.path, resp.StatusCode, body, err)
		}
	}
	metrics := string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		`lovod_query_errors_total{kind="internal"} 3`,
		"lovod_queries_total 0",
		"lovod_batch_queries_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q\n%s", want, metrics)
		}
	}
}

// BenchmarkEncodeBatch encodes a scan batch's body: 8 answers of 125
// objects each, by the encoder — each answer's fragment once, then the
// splice, as a request that misses on all 8 pays — and by encoding/json.
func BenchmarkEncodeBatch(b *testing.B) {
	plan := core.Plan{Kind: core.PlanFixed, Exact: true, FastK: 125, ShardK: 125, RerankFrames: 64, TopN: 25, SkipRerank: true}
	texts := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "ggggggg", "hhhhhhhh"}
	results, _ := (&wideBackend{n: 125}).QueryBatchPlanned(context.Background(), texts, make([]core.Plan, len(texts)), 0, 0)
	wire := batchResponse{Results: make([]QueryResponse, len(results))}
	for q, res := range results {
		wire.Results[q] = wireResponse(res, plan, false, nil)
	}
	body, _ := referenceBody(wire)
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		out := make([]answer, len(results))
		for i := 0; i < b.N; i++ {
			for q, res := range results {
				out[q] = answer{frag: encodeFragment(res), plan: plan}
			}
			e := encoderPool.Get().(*encoder)
			e.answers(out)
			e.b = e.b[:0]
			encoderPool.Put(e)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wideBackend answers every query with n objects whose boxes and scores
// carry full-precision floats, as a real answer's do.
type wideBackend struct {
	fakeBackend
	n int
}

// QueryBatchPlanned records and gates the batch as fakeBackend does, then
// answers each text with objects derived from its length.
func (b *wideBackend) QueryBatchPlanned(ctx context.Context, texts []string, plans []core.Plan, workers, clients int) ([]*core.Result, error) {
	if _, err := b.fakeBackend.QueryBatchPlanned(ctx, texts, plans, workers, clients); err != nil {
		return nil, err
	}
	out := make([]*core.Result, len(texts))
	for q, text := range texts {
		objs := make([]core.ResultObject, b.n)
		for i := range objs {
			f := float64(len(text)*b.n+i) / 1000
			objs[i] = core.ResultObject{
				VideoID: q*31 + i%17, FrameIdx: i * 3,
				Box:   video.Box{X: 0.1 + f/7, Y: 0.3 - f/11, W: 0.05 + f/13, H: 0.2 + f/17},
				Score: 0.9 - float32(i)/500, PatchID: int64(q<<20 | i),
			}
		}
		out[q] = &core.Result{Objects: objs, CandidateFrames: 55, FastSearch: 2251 * time.Microsecond, Rerank: 13370 * time.Microsecond}
	}
	return out, nil
}

// BenchmarkServeCachedHit serves one /query cache hit of a 20-object
// answer through ServeHTTP: plan, cache lookup, slow-log offer and reply,
// with the request and recorder built per iteration.
func BenchmarkServeCachedHit(b *testing.B) {
	srv := New(&wideBackend{n: 20}, Config{CacheSize: 16})
	const body = `{"query": "A red car driving in the center of the road."}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		return rec
	}
	serve() // the miss that fills the entry
	if rec := serve(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
		b.Fatalf("warm-up hit answered %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// TestRepliesSpliceOneEncoding: every reply serving one computed answer
// carries the same bytes — a cache hit's body is the miss body with only
// "cached" flipped, on /query and /query/batch alike; a waiter coalesced
// onto another request's flight and a duplicate inside one batch answer
// the leader's bytes exactly; and debug:true on a hit still echoes the
// trace after them.
func TestRepliesSpliceOneEncoding(t *testing.T) {
	const red, truck, bus = "a red car", "a truck", "a bus"
	fb := &wideBackend{n: 20, fakeBackend: fakeBackend{
		entered: make(chan struct{}, 1), release: make(chan struct{}), gateText: bus,
	}}
	srv := New(fb, Config{CacheSize: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(path string, body any) []byte {
		t.Helper()
		resp, data := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	results := func(body []byte) []json.RawMessage {
		t.Helper()
		var br struct{ Results []json.RawMessage }
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		return br.Results
	}
	// asHit is a miss body as its cache hit must answer it.
	asHit := func(miss []byte) []byte {
		t.Helper()
		if bytes.Count(miss, []byte(`"cached":false`)) != 1 {
			t.Fatalf("want exactly one \"cached\":false in %s", miss)
		}
		return bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1)
	}

	miss := post("/query", queryRequest{Query: red})
	if hit := post("/query", queryRequest{Query: red}); !bytes.Equal(hit, asHit(miss)) {
		t.Fatalf("/query hit differs from its miss beyond \"cached\":\n%s\n%s", hit, miss)
	}

	// One batch: a hit, a miss and that miss's duplicate.
	got := results(post("/query/batch", batchRequest{Queries: []string{red, truck, truck}}))
	lone := bytes.TrimSuffix(asHit(miss), []byte("\n"))
	if len(got) != 3 || !bytes.Equal(got[0], lone) {
		t.Fatalf("batch hit differs from the /query hit:\n%s\n%s", got[0], lone)
	}
	if !bytes.Equal(got[1], got[2]) || bytes.Equal(got[1], got[0]) {
		t.Fatalf("a duplicate in one batch must answer its first copy's bytes:\n%s\n%s", got[1], got[2])
	}
	if again := results(post("/query/batch", batchRequest{Queries: []string{truck}})); !bytes.Equal(again[0], asHit(got[1])) {
		t.Fatalf("/query/batch hit differs from its miss beyond \"cached\":\n%s\n%s", again[0], got[1])
	}

	// A waiter coalesced onto a flight another request leads.
	bodies := make(chan []byte, 2)
	go func() { bodies <- post("/query", queryRequest{Query: bus}) }()
	<-fb.entered
	misses := srv.cache.stats().Misses
	go func() { bodies <- post("/query", queryRequest{Query: bus}) }()
	waitJoined(t, srv, misses+1)
	close(fb.release)
	leader, waiter := <-bodies, <-bodies
	if !bytes.Equal(leader, waiter) {
		t.Fatalf("a coalesced waiter's body differs from its leader's:\n%s\n%s", waiter, leader)
	}
	if n := fb.executions(bus); n != 1 {
		t.Fatalf("backend ran %q %d times, want 1 (the waiter must coalesce)", bus, n)
	}
	if hit := post("/query", queryRequest{Query: bus}); !bytes.Equal(hit, asHit(leader)) {
		t.Fatalf("hit after a coalesced miss differs beyond \"cached\":\n%s\n%s", hit, leader)
	}

	// debug:true on a hit: the hit's bytes, then the trace.
	debug := post("/query", queryRequest{Query: red, Debug: true})
	head := bytes.TrimSuffix(asHit(miss), []byte("}\n"))
	if !bytes.HasPrefix(debug, append(head, `,"trace":{"name":"query"`...)) {
		t.Fatalf("debug hit must splice the hit's bytes and then echo the trace:\n%s\n%s", debug, head)
	}
}

// TestRepliesCarryContentLength: a buffered success body goes out with its
// length, not chunked framing, even past net/http's 2 KiB pre-chunking
// buffer — a 20-object /query answer and its hit, and a /query/batch
// answer — while a body that cannot encode still answers a JSON 500.
func TestRepliesCarryContentLength(t *testing.T) {
	ts := httptest.NewServer(New(&wideBackend{n: 20}, Config{CacheSize: 16}))
	defer ts.Close()
	for i, req := range []struct{ path, body string }{
		{"/query", `{"query": "A red car driving in the center of the road."}`},
		{"/query", `{"query": "A red car driving in the center of the road."}`}, // the hit
		{"/query/batch", `{"queries": ["a truck", "a bus", "a person"]}`},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): status %d (%v)", i, req.path, resp.StatusCode, err)
		}
		if len(body) <= 2048 {
			t.Fatalf("request %d (%s): a %d-byte body does not pass the pre-chunking buffer", i, req.path, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("request %d (%s): Content-Length %d, Transfer-Encoding %v; want %d and none",
				i, req.path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}

	bad := httptest.NewServer(New(&nanBackend{}, Config{CacheSize: 4}))
	defer bad.Close()
	resp, err := http.Post(bad.URL+"/query", "application/json", strings.NewReader(`{"query": "a red car"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusInternalServerError ||
		resp.Header.Get("Content-Type") != "application/json" || body["error"] == "" {
		t.Fatalf("encoding failure: status %d, Content-Type %q, body %v (%v); want a JSON 500",
			resp.StatusCode, resp.Header.Get("Content-Type"), body, err)
	}
}
