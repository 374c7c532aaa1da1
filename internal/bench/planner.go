package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/server"
	"repro/internal/shard"
)

func init() {
	register("planner", plannerBench)
	register("cachesweep", cacheSweep)
}

// p50 returns the median of a latency sample.
func p50(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// plannerBench compares the fixed default knobs against accuracy-bounded
// planning: per-query p50 latency and measured stage-1 recall (against the
// exact-search ground truth) for each mode. The reproduction target is the
// tentpole's claim — at equal or better measured recall, the planner's
// chosen plans answer faster than the fixed knobs, because calibration lets
// it buy only as much index effort and rerank width as the bound needs.
func plannerBench(o Options) (*Table, error) {
	ds := datasets.QVHighlights(datasets.Config{Seed: o.Seed, Scale: o.Scale})
	sys, err := core.New(core.Config{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	for i := range ds.Videos {
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			return nil, err
		}
	}
	if err := sys.BuildIndex(); err != nil {
		return nil, err
	}
	texts := make([]string, 0, len(ds.Queries))
	for _, q := range ds.Queries {
		texts = append(texts, q.Text)
	}
	reps := 9
	if o.Quick {
		reps = 3
	}

	t := &Table{
		ID:     "planner",
		Title:  "Fixed knobs vs accuracy-bounded planning: p50 latency at measured stage-1 recall",
		Header: []string{"mode", "plan kinds", "p50 latency", "measured recall"},
	}
	type mode struct {
		label string
		opts  core.QueryOptions
	}
	modes := []mode{
		{"fixed defaults", core.QueryOptions{}},
		{"min_recall=0.80", core.QueryOptions{MinRecall: 0.80}},
		{"min_recall=0.90", core.QueryOptions{MinRecall: 0.90}},
		{"min_recall=0.99", core.QueryOptions{MinRecall: 0.99}},
		{"exhaustive", core.QueryOptions{Exhaustive: true}},
	}
	var fixedP50 time.Duration
	var fixedRecall float64
	var bestBounded string
	for _, m := range modes {
		// Resolve plans once up front: calibration (first bounded plan) is
		// an ingest-time cost, not a per-query one, and must not pollute
		// the latency sample.
		kinds := map[string]bool{}
		var recall float64
		for _, text := range texts {
			plan, err := sys.PlanQueryCtx(rootCtx(), text, m.opts)
			if err != nil {
				return nil, err
			}
			kinds[string(plan.Kind)] = true
			r, err := core.StageRecall(rootCtx(), sys.Target(), text, plan)
			if err != nil {
				return nil, err
			}
			recall += r
		}
		recall /= float64(len(texts))
		var lats []time.Duration
		for rep := 0; rep < reps; rep++ {
			for _, text := range texts {
				start := time.Now()
				if _, err := core.Query(rootCtx(), sys, text, m.opts); err != nil {
					return nil, err
				}
				lats = append(lats, time.Since(start))
			}
		}
		kindList := make([]string, 0, len(kinds))
		for k := range kinds {
			kindList = append(kindList, k)
		}
		sort.Strings(kindList)
		med := p50(lats)
		t.Add(m.label, strings.Join(kindList, ","), ms(med), f3(recall))
		if m.label == "fixed defaults" {
			fixedP50, fixedRecall = med, recall
		} else if m.opts.MinRecall > 0 && bestBounded == "" &&
			recall >= fixedRecall && med < fixedP50 {
			bestBounded = fmt.Sprintf("%s: p50 %s vs fixed %s at recall %.3f >= %.3f",
				m.label, ms(med), ms(fixedP50), recall, fixedRecall)
		}
	}
	if bestBounded != "" {
		t.Note("bounded planning beats fixed knobs at equal-or-better measured recall — %s", bestBounded)
	} else {
		t.Note("no bounded mode beat the fixed knobs at equal measured recall on this workload")
	}
	t.Note("expected shape: lower bounds buy latency with recall; exhaustive is the recall-1 cost ceiling")
	return t, nil
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
