package remote_test

// Backend-mixing suite: one Engine composing in-process shards (shard.Local)
// AND remote workers (remote.Client over pipes) in the same deployment —
// the topology a gradual scale-out passes through. Answers, snapshots, and
// IngestGen-driven cache invalidation must all behave identically to the
// all-local engine.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
)

// mixedEngine builds a 4-shard engine: shards 0 and 2 in-process, shards 1
// and 3 remote workers behind pipes.
func mixedEngine(t *testing.T, cfg core.Config) (*shard.Engine, []*pipeHost) {
	t.Helper()
	backends := make([]remote.ShardBackend, 4)
	var hosts []*pipeHost
	for i := range backends {
		l, err := shard.NewLocal(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			backends[i] = l
			continue
		}
		h := newPipeHost(l)
		h.local = l
		hosts = append(hosts, h)
		backends[i] = remote.NewClient(fmt.Sprintf("pipe://mixed-%d", i), remote.ClientOptions{Dial: h.dial})
	}
	eng, err := shard.NewWithBackends(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, hosts
}

// TestMixedBackendsMatchAllLocal: an engine mixing in-process and remote
// shards answers byte-identically to the all-local engine — shard placement
// is invisible to results, stats and the ingest generation.
func TestMixedBackendsMatchAllLocal(t *testing.T) {
	const seed = 29
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})

	ref, err := shard.New(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ref, ds)
	eng, _ := mixedEngine(t, cfg)
	ingestAll(t, eng, ds)

	if got, want := eng.Entities(), ref.Entities(); got != want {
		t.Fatalf("entities: mixed %d, local %d", got, want)
	}
	if got, want := eng.Status().Gen, ref.Status().Gen; got != want {
		t.Fatalf("ingest gen: mixed %d, local %d", got, want)
	}
	queries := ds.Queries
	if testing.Short() {
		queries = queries[:3]
	}
	for _, q := range queries {
		want, err := core.Query(context.Background(), ref, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%s: mixed engine diverges from all-local engine", q.ID)
		}
	}
	// Health probes see both kinds.
	stats := eng.Status().Backends
	kinds := map[string]int{}
	for _, st := range stats {
		if !st.Healthy {
			t.Fatalf("healthy mixed engine reports unhealthy backend: %+v", st)
		}
		kinds[st.Kind]++
	}
	if kinds["local"] != 2 || kinds["remote"] != 2 {
		t.Fatalf("backend kinds = %v, want 2 local + 2 remote", kinds)
	}
}

// TestMixedSnapshotRoundTrip saves a snapshot through an engine whose
// shards are part-remote (segments travel over RPC) and restores it into
// (a) another mixed engine and (b) an all-local engine — the format is
// placement-agnostic, so both must answer identically to the original.
func TestMixedSnapshotRoundTrip(t *testing.T) {
	const seed = 31
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	orig, _ := mixedEngine(t, cfg)
	ingestAll(t, orig, ds)

	var buf bytes.Buffer
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restoredMixed, _ := mixedEngine(t, cfg)
	if err := restoredMixed.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restoring into mixed engine: %v", err)
	}
	restoredLocal, err := shard.New(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restoredLocal.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restoring into all-local engine: %v", err)
	}

	for _, restored := range []*shard.Engine{restoredMixed, restoredLocal} {
		if restored.Entities() != orig.Entities() || !restored.Status().Built {
			t.Fatalf("restored engine: %d entities (want %d), built=%t",
				restored.Entities(), orig.Entities(), restored.Status().Built)
		}
	}
	for _, q := range ds.Queries[:3] {
		want, err := core.Query(context.Background(), orig, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for name, restored := range map[string]*shard.Engine{"mixed": restoredMixed, "local": restoredLocal} {
			got, err := core.Query(context.Background(), restored, q.Text, core.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Objects, want.Objects) {
				t.Fatalf("%s: engine restored as %s diverges", q.ID, name)
			}
		}
	}
}

// TestIngestGenInvalidatesCacheAcrossRPC drives the serving tier over a
// mixed engine: a cached answer must be served from cache until an ingest
// into a REMOTE shard advances the generation across the RPC boundary, at
// which point the next lookup recomputes.
func TestIngestGenInvalidatesCacheAcrossRPC(t *testing.T) {
	const seed = 37
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, _ := mixedEngine(t, cfg)

	// Hold back one video owned by a remote shard (odd shard index ⇒
	// video ID odd modulo 4).
	heldVideo := -1
	for i := range ds.Videos {
		if ds.Videos[i].ID%4 == 1 {
			heldVideo = i
			break
		}
	}
	if heldVideo < 0 {
		t.Fatal("dataset has no video owned by shard 1")
	}
	for i := range ds.Videos {
		if i == heldVideo {
			continue
		}
		if err := eng.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	srv := server.New(eng, server.Config{CacheSize: 32, Shards: 4})
	post := func() (cached bool) {
		t.Helper()
		body := fmt.Sprintf(`{"query": %q}`, ds.Queries[0].Text)
		req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("POST /query = %d: %s", w.Code, w.Body)
		}
		var resp struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Cached
	}

	if post() {
		t.Fatal("first lookup must miss")
	}
	if !post() {
		t.Fatal("second lookup must hit the cache")
	}
	// Ingest the held-back video into the remote shard: the generation
	// advances over RPC and the cached answer dies.
	if err := eng.Ingest(&ds.Videos[heldVideo]); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if post() {
		t.Fatal("ingest into a remote shard must invalidate the cached answer")
	}
	if !post() {
		t.Fatal("recomputed answer must cache again")
	}
}

// TestServingTierReportsDeadBackend drives the HTTP tier over a mixed
// engine and kills one remote worker: /healthz must flip to "degraded"
// naming the backend, and /query must answer 503 with the unreachable
// worker in the error — not "index not built yet", and never a partial
// merge.
func TestServingTierReportsDeadBackend(t *testing.T) {
	const seed = 41
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := mixedEngine(t, cfg)
	ingestAll(t, eng, ds)
	srv := server.New(eng, server.Config{CacheSize: 0, Shards: 4})

	get := func(path string) (int, string) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy /healthz = %d %s", code, body)
	}

	hosts[0].kill()
	code, body := get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz must stay 200 (the tier is alive): got %d", code)
	}
	if !strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, `"backends_down":1`) {
		t.Fatalf("/healthz must report degraded with one backend down: %s", body)
	}

	req := httptest.NewRequest("POST", "/query",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, ds.Queries[0].Text)))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != 503 {
		t.Fatalf("query with a dead shard = %d %s, want 503", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "unreachable") {
		t.Fatalf("503 must name the unreachable backend, got %s", w.Body)
	}

	// Revive: service restores with no residue.
	hosts[0].revive()
	if code, body := get("/healthz"); !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("revived /healthz = %d %s", code, body)
	}
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/query",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, ds.Queries[0].Text))))
	if w.Code != 200 {
		t.Fatalf("revived query = %d %s", w.Code, w.Body)
	}
}
