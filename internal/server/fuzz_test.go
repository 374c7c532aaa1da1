package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// serveBody posts body to path on a fresh server over a fresh fake backend.
func serveBody(path, body string) *httptest.ResponseRecorder {
	srv := New(&fakeBackend{badText: "zorgon"}, Config{CacheSize: 4})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// FuzzServeBodies throws arbitrary bytes at every body-reading endpoint.
// Properties: no panic; the status is one the API documents; every 200
// body decodes into its response type; and a 200 /query answers with the
// objects and plan of element 0 of a /query/batch of the same text and
// options — the two endpoints are one pipeline.
func FuzzServeBodies(f *testing.F) {
	for _, seed := range []string{
		`{"query": "a red car"}`,
		`{"query": "a red car", "debug": true, "options": {"fast_k": 5, "top_n": 2}}`,
		`{"query": "zorgon"}`,
		`{"query": "  "}`,
		`{"query": "a car", "options": {"min_recall": 1.5}}`,
		`{"query": "a red car", "options": {"min_recall": 0.9}}`,
		`{"queries": ["a red car"], "options": {"min_recall": 0.9}}`,
		`{"query": "a car", "options": {"fast_k": -1, "exhaustive": true}}`,
		`{"queries": ["a truck", "a person", "a truck"], "options": {"disable_rerank": true}}`,
		`{"queries": []}`,
		`{"queries": ["a car", "zorgon"]}`,
		`{"ID": 3, "Frames": [{"VideoID": 3, "Index": 0}]}`,
		`{"id": -1, "frames": []}`,
		`{"ID": 3, "Frames": [{"VideoID": 4, "Index": 0}]}`,
		`{"ID": 5, "Frames": [{"VideoID": 5, "Index": 0, "Objets": []}]}`,
		`null`, `[]`, `{`, ``, `"a car"`, `{"query": 7}`,
		`{"query":"a red car"} trailing`,
		`{"query":"a red car"}{"query":"x"}`,
		`{"queries":["a red car"]} ]`,
		"{\"query\": \"a red car\"}\n",
		`{"ID": 3, "Frames": [{"VideoID": 3, "Index": 0}]} {}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		statuses := map[string]int{}
		for _, path := range []string{"/query", "/query/batch", "/ingest"} {
			rec := serveBody(path, body)
			statuses[path] = rec.Code
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
				http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
			default:
				t.Fatalf("%s: status %d outside the documented set: %s", path, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			var v any
			switch path {
			case "/query":
				v = &QueryResponse{}
			case "/query/batch":
				v = &batchResponse{}
			default:
				v = &IngestResponse{}
			}
			if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
				t.Fatalf("%s: 200 body does not decode: %v: %s", path, err, rec.Body)
			}
		}
		if statuses["/query"] != http.StatusOK {
			return
		}
		var req queryRequest
		var lone QueryResponse
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("a served /query body must decode: %v", err)
		}
		if err := json.Unmarshal(serveBody("/query", body).Body.Bytes(), &lone); err != nil {
			t.Fatal(err)
		}
		batchBody, err := json.Marshal(batchRequest{Queries: []string{req.Query}, Options: req.Options})
		if err != nil {
			t.Fatal(err)
		}
		rec := serveBody("/query/batch", string(batchBody))
		var br batchResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &br) != nil || len(br.Results) != 1 {
			t.Fatalf("/query served %q but a batch of it answered %d: %s", req.Query, rec.Code, rec.Body)
		}
		if !reflect.DeepEqual(lone.Objects, br.Results[0].Objects) || lone.Plan != br.Results[0].Plan {
			t.Fatalf("/query and a batch of one diverge for %q:\n%+v\n%+v", req.Query, lone, br.Results[0])
		}
	})
}
