package remote_test

// RPC-count regression suite: the serving tier's metadata reads must cost
// exactly one round trip per worker — per request, per /stats scrape — and a
// cache miss adds only its stage legs. Frames are counted on the wire (the
// client side of every pipe parses the request stream), so a metadata read
// that sneaks back in as its own RPC fails here whatever it is called.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/video"
)

// Request op bytes as they travel (see internal/remote/wire.go).
const (
	wireGround = 5
	wireStatus = 17
	wireStage1 = 18
)

// frameLog records the op byte of every request frame written to one
// worker, across all of its connections.
type frameLog struct {
	mu  sync.Mutex
	ops []byte
}

func (l *frameLog) take() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops
	l.ops = nil
	return ops
}

// frameConn parses the length-prefixed request stream its owner writes:
// four header bytes, then that many payload bytes whose first is the op.
type frameConn struct {
	net.Conn
	log  *frameLog
	head []byte // header bytes collected so far
	left uint32 // payload bytes still to pass
}

func (c *frameConn) Write(p []byte) (int, error) {
	for _, b := range p {
		if c.left > 0 {
			c.left--
			continue
		}
		c.head = append(c.head, b)
		if len(c.head) == 5 { // 4 length bytes + the op
			n := uint32(c.head[0]) | uint32(c.head[1])<<8 | uint32(c.head[2])<<16 | uint32(c.head[3])<<24
			c.log.mu.Lock()
			c.log.ops = append(c.log.ops, b)
			c.log.mu.Unlock()
			c.left, c.head = n-1, c.head[:0]
		}
	}
	return c.Conn.Write(p)
}

// countFrames installs a frame log on every host.
func countFrames(hosts []*pipeHost) []*frameLog {
	logs := make([]*frameLog, len(hosts))
	for i, h := range hosts {
		log := &frameLog{}
		logs[i] = log
		h.mu.Lock()
		h.wrap = func(c net.Conn) net.Conn { return &frameConn{Conn: c, log: log} }
		h.mu.Unlock()
	}
	return logs
}

// rerankLegs collects the shards that ran a stage-2 leg from a query's span
// tree.
func rerankLegs(sp *server.SpanJSON, owners map[int]bool) {
	if sp == nil {
		return
	}
	if sp.Name == "rerank.shard" {
		var shardIdx, frames int
		if _, err := fmt.Sscanf(sp.Detail, "shard=%d frames=%d", &shardIdx, &frames); err == nil {
			owners[shardIdx] = true
		}
	}
	for _, c := range sp.Children {
		rerankLegs(c, owners)
	}
}

func TestServingTierRPCCounts(t *testing.T) {
	const seed = 47
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := remoteEngine(t, 2, 1, cfg, remote.ClientOptions{})
	// Installed before the first dial, so pooled connections count too.
	logs := countFrames(hosts)
	ingestAll(t, eng, ds)
	srv := server.New(eng, server.Config{CacheSize: 8, Shards: 2})
	for _, log := range logs {
		log.take()
	}

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code != 200 {
			t.Fatalf("%s %s = %d: %s", method, path, w.Code, w.Body)
		}
		return w
	}
	query := fmt.Sprintf(`{"query": %q, "debug": true}`, ds.Queries[0].Text)

	// Cache miss: one status read, one stage-1 leg, and one stage-2 leg on
	// exactly the workers the trace says own a candidate frame.
	var resp server.QueryResponse
	if err := json.Unmarshal(do("POST", "/query", query).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.CandidateFrames == 0 {
		t.Fatalf("first query must miss and rerank: cached=%v candidates=%d", resp.Cached, resp.CandidateFrames)
	}
	owners := map[int]bool{}
	rerankLegs(resp.Trace, owners)
	if len(owners) == 0 {
		t.Fatal("trace shows no rerank.shard leg")
	}
	for i, log := range logs {
		want := []byte{wireStatus, wireStage1}
		if owners[i] {
			want = append(want, wireGround)
		}
		if got := log.take(); !reflect.DeepEqual(got, want) {
			t.Errorf("cache miss, worker %d: request ops %v, want %v", i, got, want)
		}
	}

	// Cache hit: the status read is the whole request.
	if err := json.Unmarshal(do("POST", "/query", query).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("second query must hit the cache")
	}
	for i, log := range logs {
		if got := log.take(); !reflect.DeepEqual(got, []byte{wireStatus}) {
			t.Errorf("cache hit, worker %d: request ops %v, want one status read", i, got)
		}
	}

	// Every introspection endpoint renders from one snapshot.
	for _, path := range []string{"/stats", "/healthz", "/metrics"} {
		do("GET", path, "")
		for i, log := range logs {
			if got := log.take(); !reflect.DeepEqual(got, []byte{wireStatus}) {
				t.Errorf("GET %s, worker %d: request ops %v, want one status read", path, i, got)
			}
		}
	}

	// A batch of four misses (top_n keys them apart from the cached
	// answer): one status read and ONE stage-1 round trip per worker for
	// the whole batch, then one stage-2 leg per query that has candidate
	// frames on the worker. The legs each query needs come from its own
	// traced run on an uncached server over the same engine.
	texts := queryTexts(ds)[:4]
	probe := server.New(eng, server.Config{Shards: 2})
	grounds := make([]int, len(logs))
	for _, text := range texts {
		w := httptest.NewRecorder()
		probe.ServeHTTP(w, httptest.NewRequest("POST", "/query", strings.NewReader(
			fmt.Sprintf(`{"query": %q, "options": {"top_n": 5}, "debug": true}`, text))))
		var lone server.QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &lone); err != nil {
			t.Fatal(err)
		}
		legs := map[int]bool{}
		rerankLegs(lone.Trace, legs)
		if len(legs) == 0 {
			t.Fatalf("%q reranks on no worker; the stage-2 counts would be vacuous", text)
		}
		for i := range legs {
			grounds[i]++
		}
	}
	for _, log := range logs {
		log.take()
	}
	body, err := json.Marshal(map[string]any{"queries": texts, "options": map[string]int{"top_n": 5}})
	if err != nil {
		t.Fatal(err)
	}
	var batch struct{ Results []server.QueryResponse }
	if err := json.Unmarshal(do("POST", "/query/batch", string(body)).Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		if r.Cached {
			t.Fatalf("batch query %d must miss the cache", i)
		}
	}
	for i, log := range logs {
		want := []byte{wireStatus, wireStage1}
		for range grounds[i] {
			want = append(want, wireGround)
		}
		if got := log.take(); !reflect.DeepEqual(got, want) {
			t.Errorf("batch of %d misses, worker %d: request ops %v, want %v", len(texts), i, got, want)
		}
	}
}

// TestStage1BatchSplitsIntoFrames: a batch whose requested hits (Σ ShardK ×
// 60 B) pass the client's frame budget travels as several stage-1 frames —
// here two queries per frame — and answers exactly what each query answers
// alone, over the wire and in-process.
func TestStage1BatchSplitsIntoFrames(t *testing.T) {
	const seed = 59
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	local := freshLocal(t, core.Config{Seed: seed})
	vs := make([]*video.Video, len(ds.Videos))
	for i := range ds.Videos {
		vs[i] = &ds.Videos[i]
	}
	if err := local.IngestVideos(vs); err != nil {
		t.Fatal(err)
	}
	if err := local.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	host := newPipeHost(local)
	log := countFrames([]*pipeHost{host})[0]
	client := remote.NewClient("pipe://split", remote.ClientOptions{Dial: host.dial})
	defer client.Close()

	// Each query asks for just over a third of the budget, so two share a
	// frame and a third does not fit.
	k := remote.Stage1FrameBudget/(3*60) + 1
	texts := append(queryTexts(ds), queryTexts(ds)...)[:5]
	plans := make([]core.Plan, len(texts))
	for i := range plans {
		plans[i] = core.Plan{FastK: k, ShardK: k, Exact: i%2 == 0}
	}
	got, err := client.FastSearchBatch(context.Background(), texts, plans)
	if err != nil {
		t.Fatal(err)
	}
	if ops := log.take(); !reflect.DeepEqual(ops, []byte{wireStage1, wireStage1, wireStage1}) {
		t.Fatalf("5-query batch at %d B of hits each: request ops %v, want 3 stage-1 frames", k*60, ops)
	}
	inProcess, err := local.FastSearchBatch(context.Background(), texts, plans)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range texts {
		lone, err := client.FastSearch(context.Background(), text, plans[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(lone) == 0 || !reflect.DeepEqual(got[i], lone) || !reflect.DeepEqual(got[i], inProcess[i]) {
			t.Fatalf("query %d: split batch answer (%d hits) differs from the lone (%d) or in-process (%d) answer",
				i, len(got[i]), len(lone), len(inProcess[i]))
		}
	}
}

// passthrough embeds the backend interface the way the chaos and latency
// wrappers do, overriding nothing.
type passthrough struct{ remote.ShardBackend }

// TestWrappedBackendKeepsIdentityAndSegments: everything a shard reports
// about itself travels through the one interface method, so a wrapper that
// embeds ShardBackend hides none of it — segment stats and worker address
// still surface, and restart detection still fires.
func TestWrappedBackendKeepsIdentityAndSegments(t *testing.T) {
	const seed = 53
	cfg := core.Config{Seed: seed, Streaming: true, SegmentSize: 64}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	hosts := make([]*pipeHost, 2)
	backends := make([]remote.ShardBackend, 2)
	for i := range hosts {
		hosts[i] = newPipeHost(freshLocal(t, cfg))
		client := remote.NewClient(fmt.Sprintf("pipe://wrapped-%d", i), remote.ClientOptions{Dial: hosts[i].dial})
		backends[i] = passthrough{client}
	}
	eng, err := shard.NewWithBackends(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ingestAll(t, eng, ds)

	st := eng.Status()
	if !st.Built || !st.Segments.Streaming || st.Segments.Growing != 2 || st.Segments.Seals == 0 {
		t.Fatalf("wrapped streaming workers must report their segments: built=%v %+v", st.Built, st.Segments)
	}
	for i, b := range st.Backends {
		if b.Kind != "remote" || b.Addr != fmt.Sprintf("pipe://wrapped-%d", i) || !b.Healthy {
			t.Fatalf("wrapped backend %d lost its identity: %+v", i, b)
		}
	}

	hosts[1].restart(freshLocal(t, cfg))
	st = eng.Status()
	if st.Built || st.Backends[1].Healthy || !strings.Contains(st.Backends[1].Error, "state lost") {
		t.Fatalf("restart behind a wrapper must be detected: built=%v %+v", st.Built, st.Backends[1])
	}
}
