package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/server"
	"repro/internal/shard"
)

func init() {
	register("cachesweep", cacheSweep)
}

// cacheSweep replays a Zipfian query mix against the serving tier's LRU to
// pick the default -cache size: the smallest capacity whose hit rate sits
// within two points of the largest swept cache. Distinct logical queries are
// minted by suffixing a base query with an out-of-vocabulary token ("#37"),
// which changes the cache key but not the recognised terms.
func cacheSweep(o Options) (*Table, error) {
	ds := datasets.Bellevue(datasets.Config{Seed: o.Seed, Scale: o.Scale * 0.5})
	// The serving tier fronts an engine; one shard answers byte-identically
	// to the single system.
	eng, err := shard.New(1, core.Config{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	if err := eng.IngestDataset(ds); err != nil {
		return nil, err
	}
	if err := eng.BuildIndex(); err != nil {
		return nil, err
	}

	// The query universe: distinct keys over a handful of base texts, ranked
	// by Zipfian popularity — the head queries dominate, the tail churns.
	const universe = 512
	queries := make([]string, universe)
	for i := range queries {
		queries[i] = fmt.Sprintf("%s #%d", ds.Queries[i%len(ds.Queries)].Text, i)
	}
	requests := 4000
	if o.Quick {
		requests = 400
	}

	t := &Table{
		ID:     "cachesweep",
		Title:  "LRU result-cache sweep under a Zipfian query mix",
		Header: []string{"cache size", "hit rate", "misses", "evictions", "total time"},
	}
	sizes := []int{0, 16, 32, 64, 128, 256, 512}
	if o.Quick {
		sizes = []int{0, 32, 128, 512}
	}
	type point struct {
		size int
		rate float64
	}
	var points []point
	for _, size := range sizes {
		srv := server.New(eng, server.Config{CacheSize: size, Shards: 1})
		// One deterministic Zipfian replay per size: same seed, same mix.
		zipf := rand.NewZipf(rand.New(rand.NewSource(int64(o.Seed)+1)), 1.07, 1, universe-1)
		start := time.Now()
		for i := 0; i < requests; i++ {
			body, _ := json.Marshal(map[string]any{"query": queries[zipf.Uint64()]})
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("cachesweep: /query status %d: %s", rec.Code, rec.Body.String())
			}
		}
		elapsed := time.Since(start)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st server.StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return nil, err
		}
		cs := st.Cache
		rate := float64(cs.Hits) / float64(requests)
		points = append(points, point{size, rate})
		t.Add(fmt.Sprintf("%d", size), f3(rate),
			fmt.Sprintf("%d", cs.Misses), fmt.Sprintf("%d", cs.Evicted), secs(elapsed))
	}
	best := points[len(points)-1].rate
	for _, p := range points {
		if p.size > 0 && p.rate >= best-0.02 {
			t.Note("recommended default: -cache %d (hit rate %.3f, within 2 points of the %.3f ceiling)",
				p.size, p.rate, best)
			break
		}
	}
	t.Note("expected shape: hit rate climbs steeply while the cache covers the Zipf head, then flattens")
	return t, nil
}
