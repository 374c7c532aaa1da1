package remote_test

// Watch suite: a request whose every query hits the cache reads the
// generation the workers pushed to the engine's watches instead of asking
// them. These tests pin the three ways that pushed view must give way: the
// coordinator's own write (read-your-writes: the very next request misses),
// another coordinator's write (the push makes the cached text miss within a
// bounded wait), and a worker that restarts (once the watch has seen the
// close, the synchronous status read renders the 503).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/video"
)

// replyGate holds back the replies to watch requests while it is shut, so
// a test can pin a pushed view at its old value.
type replyGate struct {
	mu   sync.Mutex
	shut chan struct{} // nil while open
}

func (g *replyGate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shut == nil {
		g.shut = make(chan struct{})
	}
}

func (g *replyGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shut != nil {
		close(g.shut)
		g.shut = nil
	}
}

func (g *replyGate) pass() {
	g.mu.Lock()
	shut := g.shut
	g.mu.Unlock()
	if shut != nil {
		<-shut
	}
}

// gatedConn passes a watch connection's replies through its gate. The
// client writes a frame's header and payload in two writes, so a watch is
// the 18-byte payload that starts with the status op (op + since token).
type gatedConn struct {
	net.Conn
	gate  *replyGate
	watch bool
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if len(p) == 18 && p[0] == wireStatus {
		c.watch = true
	}
	return c.Conn.Write(p)
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.watch {
		c.gate.pass()
	}
	return n, err
}

// watchedHosts counts every host's frames (see frameLog) and gates its
// watch replies through one gate.
func watchedHosts(hosts []*pipeHost) ([]*frameLog, *replyGate) {
	gate := &replyGate{}
	logs := countFrames(hosts)
	for i, h := range hosts {
		log := logs[i]
		h.mu.Lock()
		h.wrap = func(c net.Conn) net.Conn {
			return &gatedConn{Conn: &frameConn{Conn: c, log: log}, gate: gate}
		}
		h.mu.Unlock()
	}
	return logs, gate
}

// heldBack splits a dataset into the videos ingested up front and one
// video kept for a later write.
func heldBack(t *testing.T, ds *datasets.Dataset) ([]*video.Video, *video.Video) {
	t.Helper()
	if len(ds.Videos) < 2 {
		t.Fatal("dataset too small to hold a video back")
	}
	first := make([]*video.Video, 0, len(ds.Videos)-1)
	for i := range ds.Videos[:len(ds.Videos)-1] {
		first = append(first, &ds.Videos[i])
	}
	return first, &ds.Videos[len(ds.Videos)-1]
}

func ingestVideos(t *testing.T, eng *shard.Engine, vs []*video.Video) {
	t.Helper()
	for _, v := range vs {
		if err := eng.Ingest(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
}

// ask posts one /query and decodes a 200 answer.
func ask(t *testing.T, srv *server.Server, text string) (int, server.QueryResponse) {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/query", strings.NewReader(fmt.Sprintf(`{"query": %q}`, text))))
	var resp server.QueryResponse
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return w.Code, resp
}

// cacheText asks text twice — a miss, then, with the watches live, a hit.
func cacheText(t *testing.T, srv *server.Server, logs []*frameLog, text string) {
	t.Helper()
	if code, resp := ask(t, srv, text); code != 200 || resp.Cached {
		t.Fatalf("first ask: %d cached=%v, want a 200 miss", code, resp.Cached)
	}
	awaitWatches(t, logs)
	if code, resp := ask(t, srv, text); code != 200 || !resp.Cached {
		t.Fatalf("second ask: %d cached=%v, want a 200 hit", code, resp.Cached)
	}
}

// TestOwnIngestMissesAtOnce: a write through this coordinator's /ingest is
// visible to the very next request even while the workers' pushes are held
// back — the pushed view of a shard this engine just wrote to is not used
// until a watch sent after the write has answered.
func TestOwnIngestMissesAtOnce(t *testing.T) {
	const seed = 61
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := remoteEngine(t, 2, 1, cfg, remote.ClientOptions{})
	logs, gate := watchedHosts(hosts)
	defer gate.open()
	first, held := heldBack(t, ds)
	ingestVideos(t, eng, first)
	srv := server.New(eng, server.Config{CacheSize: 8, Shards: 2})
	text := ds.Queries[0].Text
	cacheText(t, srv, logs, text)
	genBefore := eng.Status().Gen

	gate.close()
	body, err := json.Marshal(held)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/ingest", strings.NewReader(string(body))))
	if w.Code != 200 {
		t.Fatalf("POST /ingest = %d: %s", w.Code, w.Body)
	}
	var ing server.IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.IngestGen <= genBefore {
		t.Fatalf("ingest_gen %d did not advance past %d", ing.IngestGen, genBefore)
	}
	if code, resp := ask(t, srv, text); code != 200 || resp.Cached {
		t.Fatalf("ask after own ingest: %d cached=%v, want a 200 miss at ingest_gen %d", code, resp.Cached, ing.IngestGen)
	}
	// The recomputed answer is stamped with the new generation: it hits
	// again, still without any push.
	if code, resp := ask(t, srv, text); code != 200 || !resp.Cached {
		t.Fatalf("ask after recompute: %d cached=%v, want a 200 hit", code, resp.Cached)
	}
	if gen := eng.Status().Gen; gen != ing.IngestGen {
		t.Fatalf("engine generation %d, ingest answered %d", gen, ing.IngestGen)
	}
}

// TestForeignIngestReachesTheCache: a write through a second coordinator
// over the same workers reaches the first one's pushed view, so its cached
// text misses within a bounded wait.
func TestForeignIngestReachesTheCache(t *testing.T) {
	const seed = 67
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := remoteEngine(t, 2, 1, cfg, remote.ClientOptions{})
	logs, _ := watchedHosts(hosts)
	first, held := heldBack(t, ds)
	ingestVideos(t, eng, first)
	other := make([]remote.ShardBackend, len(hosts))
	for i, h := range hosts {
		other[i] = remote.NewClient(fmt.Sprintf("pipe://other-%d", i), remote.ClientOptions{Dial: h.dial})
	}
	eng2, err := shard.NewWithBackends(other, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()

	srv := server.New(eng, server.Config{CacheSize: 8, Shards: 2})
	text := ds.Queries[0].Text
	cacheText(t, srv, logs, text)
	if err := eng2.Ingest(held); err != nil {
		t.Fatal(err)
	}
	// The worker pushes its new stamp at once; even one that never pushed
	// would answer the watch within a heartbeat.
	bound := 2 * remote.Heartbeat
	deadline := time.Now().Add(bound)
	for {
		code, resp := ask(t, srv, text)
		if code != 200 {
			t.Fatalf("ask after foreign ingest = %d", code)
		}
		if !resp.Cached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached text still hits %v after another coordinator's ingest", bound)
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := eng.Status().Gen, eng2.Status().Gen; got != want {
		t.Fatalf("coordinators disagree on the generation: %d vs %d", got, want)
	}
}

// viewBound is how long a pushed view may lag a worker: a heartbeat plus
// the default dial grace.
const viewBound = remote.Heartbeat + remote.DefaultDialTimeout

// TestRestartedWorkerRefusesCachedText: once the watch has seen a worker's
// connections close, a cached text no longer answers from the cache — the
// synchronous status read finds the restarted worker and the request
// answers 503, as /healthz reports the fleet degraded. The new worker has
// been fed the same slice up to the same generation, so only its boot nonce
// tells it apart: a hit path that trusted the pushed generation alone would
// serve the cached answer.
func TestRestartedWorkerRefusesCachedText(t *testing.T) {
	const seed = 71
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := remoteEngine(t, 2, 1, cfg, remote.ClientOptions{})
	logs, _ := watchedHosts(hosts)
	ingestAll(t, eng, ds)
	srv := server.New(eng, server.Config{CacheSize: 8, Shards: 2})
	text := ds.Queries[0].Text
	cacheText(t, srv, logs, text)

	twin := freshLocal(t, cfg)
	var slice []*video.Video
	for i := range ds.Videos {
		if ds.Videos[i].ID%2 == 1 {
			slice = append(slice, &ds.Videos[i])
		}
	}
	if err := twin.IngestVideos(slice); err != nil {
		t.Fatal(err)
	}
	if err := twin.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	old, err := hosts[1].local.Status(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := twin.Status(nil); st.Gen != old.Gen || !st.Built {
		t.Fatalf("re-fed worker at gen %d built=%v, the old one at gen %d", st.Gen, st.Built, old.Gen)
	}
	seen := logs[1].watched()
	hosts[1].restart(twin)
	// The watch redials the restarted worker only after its connection
	// closed under it.
	deadline := time.Now().Add(viewBound)
	for logs[1].watched() == seen {
		if time.Now().After(deadline) {
			t.Fatal("the watch never saw the worker's connection close")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := ask(t, srv, text); code != 503 {
		t.Fatalf("cached text after a worker restart = %d, want 503", code)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if !strings.Contains(w.Body.String(), `"status":"degraded"`) || !strings.Contains(w.Body.String(), "state lost") {
		t.Fatalf("/healthz after a worker restart: %s", w.Body)
	}
}
