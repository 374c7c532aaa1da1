package server

// Live-ingest endpoint tests: POST /ingest accepts one video.Video as JSON
// on a streaming backend, advances the ingest generation (invalidating
// cached answers), rejects malformed payloads with 400s naming the field,
// maps duplicate corpus IDs to 409, and surfaces the streaming segment
// breakdown through /stats and /metrics.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/shard"
	"repro/internal/video"
)

// bootSegmented is boot with a segmented continuous-ingest engine: small
// seal threshold so background maintenance actually runs during the test.
func bootSegmented(t *testing.T, cacheSize int) (*shard.Engine, *datasets.Dataset, *httptest.Server) {
	t.Helper()
	ds := datasets.ActivityNetQA(datasets.Config{Seed: 7, Scale: 0.04})
	eng, err := shard.New(2, core.Config{Seed: 7, SegmentSize: 200})
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

// freshVideo returns a video not present in the booted corpus, with its ID
// (and every frame's VideoID) remapped to id.
func freshVideo(t *testing.T, id int) video.Video {
	t.Helper()
	extra := datasets.Bellevue(datasets.Config{Seed: 99, Scale: 0.02})
	v := extra.Videos[0]
	v.ID = id
	for i := range v.Frames {
		v.Frames[i].VideoID = id
	}
	return v
}

func TestIngestEndpoint(t *testing.T) {
	eng, ds, ts := bootSegmented(t, 16)
	text := ds.Queries[0].Text

	// Warm the cache, remember the generation.
	_, _ = postJSON(t, ts.URL+"/query", queryRequest{Query: text})
	genBefore := eng.Status().Gen

	v := freshVideo(t, 4000)
	resp, data := postJSON(t, ts.URL+"/ingest", v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.VideoID != 4000 || ir.Frames != len(v.Frames) {
		t.Fatalf("ingest response %+v, want video 4000 with %d frames", ir, len(v.Frames))
	}
	if ir.IngestGen <= genBefore {
		t.Fatalf("ingest generation %d did not advance past %d", ir.IngestGen, genBefore)
	}

	// The cached answer predates the ingest: the next lookup must miss.
	_, data = postJSON(t, ts.URL+"/query", queryRequest{Query: text})
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatal("live ingest must invalidate cached answers")
	}

	// /stats reports the segment breakdown: one growing segment per shard.
	sdata := getBody(t, ts.URL+"/stats")
	var st StatsResponse
	if err := json.Unmarshal(sdata, &st); err != nil {
		t.Fatal(err)
	}
	if st.Segments == nil {
		t.Fatal("/stats must report segments for a streaming backend")
	}
	if st.Segments.Growing != eng.Shards() {
		t.Fatalf("growing segments %d, want one per shard (%d)", st.Segments.Growing, eng.Shards())
	}
	if st.Segments.Seals == 0 {
		t.Fatal("segmented boot ingest must have sealed at least one segment")
	}
	if st.Segments.IngestsTotal != 1 {
		t.Fatalf("ingests_total %d, want 1", st.Segments.IngestsTotal)
	}

	// /metrics renders the same numbers in Prometheus text format.
	metrics := string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		"lovod_ingest_total 1",
		`lovod_segments{state="sealed"}`,
		`lovod_segments{state="building"}`,
		fmt.Sprintf(`lovod_segments{state="growing"} %d`, eng.Shards()),
		"lovod_seals_total",
		"lovod_compactions_total",
		"lovod_segment_growing_vectors",
		"lovod_segment_sealed_vectors",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestIngestDuplicateConflicts(t *testing.T) {
	_, _, ts := bootSegmented(t, 0)
	v := freshVideo(t, 4100)
	if resp, data := postJSON(t, ts.URL+"/ingest", v); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest status %d: %s", resp.StatusCode, data)
	}
	resp, data := postJSON(t, ts.URL+"/ingest", v)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate ingest status %d, want 409: %s", resp.StatusCode, data)
	}
}

// TestIngestIntoBatchEngine pins /ingest on a batch deployment: the clip is
// accepted, its vectors flow into the built index, and a re-post is a
// duplicate.
func TestIngestIntoBatchEngine(t *testing.T) {
	eng, _, ts := boot(t, 0)
	genBefore := eng.Status().Gen
	v := freshVideo(t, 4300)
	resp, data := postJSON(t, ts.URL+"/ingest", v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.IngestGen <= genBefore {
		t.Fatalf("ingest generation %d did not advance past %d", ir.IngestGen, genBefore)
	}

	resp, data = postJSON(t, ts.URL+"/query", queryRequest{
		Query:   "A car driving on the road.",
		Options: QueryOptionsJSON{Exhaustive: true, DisableRerank: true, FastK: 1000, TopN: 50},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, obj := range qr.Objects {
		found = found || obj.VideoID == v.ID
	}
	if !found {
		t.Fatalf("exhaustive query returned no object from the ingested clip: %+v", qr.Objects)
	}

	if resp, data := postJSON(t, ts.URL+"/ingest", v); resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-posted clip status %d, want 409: %s", resp.StatusCode, data)
	}
}

func TestIngestMethodAndAvailability(t *testing.T) {
	// GET is not an ingest.
	_, _, ts := bootSegmented(t, 0)
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status %d, want 405", resp.StatusCode)
	}
}

func TestIngestValidation(t *testing.T) {
	_, _, ts := bootSegmented(t, 0)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d, want 400", resp.StatusCode)
	}

	base := freshVideo(t, 4200)
	cases := []struct {
		name   string
		mutate func(v *video.Video)
	}{
		{"negative id", func(v *video.Video) {
			v.ID = -1
			for i := range v.Frames {
				v.Frames[i].VideoID = -1
			}
		}},
		{"id past the packed field", func(v *video.Video) {
			v.ID = core.MaxVideoID + 1
			for i := range v.Frames {
				v.Frames[i].VideoID = core.MaxVideoID + 1
			}
		}},
		{"no frames", func(v *video.Video) { v.Frames = nil }},
		{"frame index out of range", func(v *video.Video) { v.Frames[0].Index = core.MaxFrameIdx + 1 }},
		{"frame video mismatch", func(v *video.Video) { v.Frames[0].VideoID = v.ID + 1 }},
	}
	for _, tc := range cases {
		v := base
		v.Frames = append([]video.Frame(nil), base.Frames...)
		tc.mutate(&v)
		resp, data := postJSON(t, ts.URL+"/ingest", v)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
		}
	}
}

// TestStatsOmitsSegmentsForBatch pins the absence contract: a batch
// deployment must not grow segment fields in /stats or /metrics.
func TestStatsOmitsSegmentsForBatch(t *testing.T) {
	_, _, ts := boot(t, 0)
	if strings.Contains(string(getBody(t, ts.URL+"/stats")), `"segments"`) {
		t.Fatal("/stats must omit segments for a batch backend")
	}
	if strings.Contains(string(getBody(t, ts.URL+"/metrics")), "lovod_segments") {
		t.Fatal("/metrics must omit lovod_segments for a batch backend")
	}
}
