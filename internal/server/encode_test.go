package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// FuzzEncodeResponse is the encoder's differential pin: for arbitrary
// objects, plans and traces, the /query and /query/batch bodies it appends
// are byte for byte encoding/json's, and it fails exactly where
// encoding/json does (a NaN or ±Inf anywhere).
func FuzzEncodeResponse(f *testing.F) {
	type seed struct {
		x, y, w, h     float64
		score          float32
		ms, recall     float64
		video, patch   int64
		kind, detail   string
		flags, objects uint8
	}
	for _, s := range []seed{
		{0.25, 0.5, 0.125, 0.0625, 0.71, 1.234, 0.9, 3, 12345, "fixed", "", 0, 3},
		{math.Copysign(0, -1), 0, -0.5, 1, float32(math.Copysign(0, -1)), 0, 0, 0, 0, "pinned", "", 0xff, 1},
		{5e-324, 2.2250738585072014e-308, 1e-7, 1e-6, 1e-45, 1e-7, 1e-7, -1, -9, "adaptive", "miss", 1, 2},
		{1e21, 9.999999999999999e20, 1e20, math.MaxFloat64, math.MaxFloat32, 1e21, 0.999, math.MaxInt64, math.MinInt64, "adaptive-exact", "hit", 6, 4},
		{0.1, 0.2, 0.3, 0.4, 1e-7, 123456789.125, 1e-5, 7, 8, "<a href='x'>&amp;</a>", "frames=8 tokens=52", 0x10, 1},
		{1, 2, 3, 4, 0.5, 2.5, 0.5, 1, 2, "line \u2028 sep \u2029 para \"quoted\" \\ \t\n\x00\x1f\x7f", "\xff\xfe bad utf-8 \xc3\x28", 0x11, 0},
		{math.NaN(), 0, 0, 0, 0.5, 0, 0, 1, 1, "fixed", "", 0, 1},
		{0, 0, 0, 0, float32(math.Inf(1)), 0, 0, 1, 1, "fixed", "", 0, 1},
		{0, 0, 0, 0, 0.5, math.Inf(-1), 0, 1, 1, "fixed", "", 0, 1},
		{0, 0, 0, 0, 0.5, 0, math.NaN(), 1, 1, "fixed", "", 0, 1},
	} {
		f.Add(s.x, s.y, s.w, s.h, s.score, s.ms, s.recall, s.video, s.patch, s.kind, s.detail, s.flags, s.objects)
	}
	f.Fuzz(func(t *testing.T, x, y, w, h float64, score float32, ms, recall float64, vid, patch int64, kind, detail string, flags, objects uint8) {
		r := QueryResponse{
			CandidateFrames: int(vid % 1000),
			FastSearchMs:    ms,
			RerankMs:        ms / 3,
			Cached:          flags&1 != 0,
			Plan: PlanJSON{
				Kind:            kind,
				Exact:           flags&2 != 0,
				FastK:           int(patch % 4096),
				ShardK:          int(vid),
				RerankFrames:    int(flags),
				TopN:            int(objects),
				SkipRerank:      flags&4 != 0,
				PredictedRecall: recall,
				Int8:            flags&8 != 0,
			},
		}
		if flags&32 != 0 {
			r.Plan.NProbe, r.Plan.Ef = int(objects)+1, int(flags)
		}
		if flags&64 == 0 { // otherwise Objects stays nil: "null"
			r.Objects = make([]ObjectJSON, objects%8)
		}
		for i := range r.Objects {
			d := float64(i)
			r.Objects[i] = ObjectJSON{
				VideoID:  int(vid) + i,
				FrameIdx: int(patch) - i,
				Box:      BoxJSON{X: x + d, Y: y * d, W: w / (d + 1), H: h - d},
				Score:    score * float32(i+1),
				PatchID:  patch ^ int64(i),
			}
		}
		if flags&16 != 0 {
			r.Trace = &SpanJSON{Name: kind, StartMs: 0, DurationMs: ms, Children: []*SpanJSON{
				{Name: "stage1", Detail: detail, StartMs: ms / 7, DurationMs: ms / 2},
			}}
		}
		sameBody(t, "query", r, func(e *encoder) { e.queryResponse(&r) })
		other := r
		other.Objects, other.Plan.Kind, other.Trace = r.Objects[:min(len(r.Objects), 1)], detail, nil
		batch := batchResponse{Results: []QueryResponse{r, other}}
		sameBody(t, "batch", batch, func(e *encoder) { e.batchResponse(batch.Results) })
		sameBody(t, "nil batch", batchResponse{}, func(e *encoder) { e.batchResponse(nil) })
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
// objects each, by the encoder and by encoding/json.
func BenchmarkEncodeBatch(b *testing.B) {
	results := make([]QueryResponse, 8)
	for q := range results {
		objs := make([]ObjectJSON, 125)
		for i := range objs {
			f := float64(q*125+i) / 1000
			objs[i] = ObjectJSON{
				VideoID: q*31 + i%17, FrameIdx: i * 3,
				Box:   BoxJSON{X: 0.1 + f/7, Y: 0.3 - f/11, W: 0.05 + f/13, H: 0.2 + f/17},
				Score: 0.9 - float32(i)/500, PatchID: int64(q<<20 | i),
			}
		}
		results[q] = QueryResponse{Objects: objs, CandidateFrames: 55, FastSearchMs: 2.251,
			Plan: PlanJSON{Kind: "fixed", Exact: true, FastK: 125, ShardK: 125, RerankFrames: 64, TopN: 25, SkipRerank: true}}
	}
	body, _ := referenceBody(batchResponse{Results: results})
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := encoderPool.Get().(*encoder)
			e.batchResponse(results)
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
			if err := json.NewEncoder(&buf).Encode(batchResponse{Results: results}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
