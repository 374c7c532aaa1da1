// Package server is LOVO's network serving tier: a net/http JSON API over
// the sharded scatter-gather engine, fronted by a bounded LRU query-result
// cache and text-format metrics.
//
// Endpoints:
//
//	POST /query          {"query": "...", "options": {...}} -> ranked objects
//	POST /query/batch    {"queries": [...], "options": {...}} -> per-query results
//	POST /ingest         one video.Video as JSON -> live ingest (streaming fleets)
//	GET  /stats          ingest, cache, replica and latency statistics as JSON
//	GET  /healthz        liveness (always 200 once listening; reports built)
//	GET  /metrics        Prometheus text-format counters and latency histograms
//	GET  /debug/queries  the slowest recent query traces as JSON (see debug.go)
//
// Every endpoint enforces its method (405 otherwise). Concurrent identical
// cache misses coalesce onto one backend call, and overlapping /query or
// /query/batch requests narrow each query's rerank pool to one worker so
// concurrent traffic never oversubscribes the cores.
//
// Every query is planned before it executes: the backend resolves the
// request options into an explicit core.Plan (fixed, pinned, or chosen by
// the accuracy-bounded planner when "min_recall" is set), the cache keys on
// (query text, resolved plan), and the response echoes the plan that ran.
// Each entry is stamped with the backend's ingest generation, so any ingest
// or index build anywhere in the engine invalidates stale answers on their
// next lookup.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// Backend is what the server serves: *shard.Engine satisfies it (a single
// system is served as a one-shard engine). The server always queries in two
// steps — plan, then execute — so it can key the result cache on the
// resolved plan and report which plans the backend is choosing. The query
// contexts carry the request's tracing recorder (see internal/obs); tracing
// never changes an answer. Status is the backend's one consistent snapshot:
// every request reads built, generation and backend health from one call,
// and /stats, /healthz and /metrics each render from one.
type Backend interface {
	PlanQueryCtx(ctx context.Context, text string, opts core.QueryOptions) (core.Plan, error)
	QueryPlanned(ctx context.Context, text string, plan core.Plan, workers int) (*core.Result, error)
	QueryBatchPlanned(ctx context.Context, texts []string, plans []core.Plan, workers, clients int) ([]*core.Result, error)
	Ingest(v *video.Video) error
	Status() shard.Status
}

// Config tunes the serving tier.
type Config struct {
	// CacheSize bounds the LRU query-result cache in entries; 0 disables
	// caching.
	CacheSize int
	// Shards is reported in /stats (informational; the backend hides its
	// own partitioning).
	Shards int
	// DefaultMinRecall, when in (0, 1], applies the accuracy bound to every
	// request that does not set "min_recall" itself, sending it through the
	// cost-based planner instead of the fixed default knobs. Zero keeps
	// unbounded requests on the fixed defaults. Requests that do set
	// "min_recall" (or "exhaustive") are unaffected.
	DefaultMinRecall float64
	// SlowLogSize bounds the /debug/queries ring of slowest recent traces
	// (0 selects the default of 16; negative disables the slow log and
	// with it per-request tracing for requests that don't ask for
	// debug=true).
	SlowLogSize int
}

// Server is the HTTP serving tier. It implements http.Handler.
type Server struct {
	backend Backend
	cfg     Config
	cache   *resultCache
	metrics *serverMetrics
	flight  *flightGroup
	slow    *slowLog
	mux     *http.ServeMux
	started time.Time

	// inflight counts /query and /query/batch requests currently
	// executing, to pick the per-request rerank width: any overlap means
	// per-query NumCPU-wide grounding pools would oversubscribe the cores.
	inflight atomic.Int64
}

// New constructs a server over backend.
func New(backend Backend, cfg Config) *Server {
	s := &Server{
		backend: backend,
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheSize),
		metrics: newServerMetrics(),
		flight:  newFlightGroup(),
		slow:    newSlowLog(cfg.SlowLogSize),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/query/batch", s.handleBatch)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	return s
}

// ServeHTTP dispatches to the API endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// QueryOptionsJSON is the wire form of core.QueryOptions.
type QueryOptionsJSON struct {
	FastK         int  `json:"fast_k,omitempty"`
	TopN          int  `json:"top_n,omitempty"`
	DisableRerank bool `json:"disable_rerank,omitempty"`
	Exhaustive    bool `json:"exhaustive,omitempty"`
	// Int8 pins the int8-quantized stage-1 scoring path (flat and IVF-PQ
	// indexes; recall-gated, not bit-identical — the shortlist is re-scored
	// exactly). Callers that want the planner to decide should set
	// min_recall instead. Ignored when exhaustive is set.
	Int8         bool `json:"int8,omitempty"`
	RerankFrames int  `json:"rerank_frames,omitempty"`
	// MinRecall, when set, asks the planner for the cheapest plan predicted
	// to reach this stage-1 recall (0 < min_recall <= 1) instead of the
	// fixed default knobs.
	MinRecall float64 `json:"min_recall,omitempty"`
}

func (o QueryOptionsJSON) toCore() core.QueryOptions {
	return core.QueryOptions{
		FastK:         o.FastK,
		TopN:          o.TopN,
		DisableRerank: o.DisableRerank,
		Exhaustive:    o.Exhaustive,
		Int8:          o.Int8,
		RerankFrames:  o.RerankFrames,
		MinRecall:     o.MinRecall,
	}
}

// resolveOptions converts validated wire options to core options, filling in
// the server's default accuracy bound for requests that set none.
func (s *Server) resolveOptions(o QueryOptionsJSON) core.QueryOptions {
	opts := o.toCore()
	if opts.MinRecall == 0 {
		opts.MinRecall = s.cfg.DefaultMinRecall
	}
	return opts
}

// maxKnob bounds the integer query knobs: anything past a million entries
// per knob is a typo or abuse, not a query, and would only commit the
// backend to absurd allocation.
const maxKnob = 1 << 20

// maxQueryBody bounds a /query or /query/batch request body: a query is a
// sentence and a handful of knobs, so past a mebibyte the payload is abuse.
const maxQueryBody = 1 << 20

// maxBatchQueries bounds the queries of one /query/batch request: each is
// planned, searched and reranked, so the body cap alone would admit about
// 170 k tiny ones. Together with the shard client's stage-1 frame budget
// it bounds every stage-1 frame a batch sends.
const maxBatchQueries = 256

// validateOptions rejects unexecutable option payloads up front, naming the
// offending field — negative or absurd knobs would otherwise surface as
// undefined backend behaviour (or an allocation) deep in the query path.
func validateOptions(o QueryOptionsJSON) error {
	switch {
	case o.FastK < 0:
		return fmt.Errorf("options.fast_k must be >= 0, got %d", o.FastK)
	case o.FastK > maxKnob:
		return fmt.Errorf("options.fast_k must be <= %d, got %d", maxKnob, o.FastK)
	case o.TopN < 0:
		return fmt.Errorf("options.top_n must be >= 0, got %d", o.TopN)
	case o.TopN > maxKnob:
		return fmt.Errorf("options.top_n must be <= %d, got %d", maxKnob, o.TopN)
	case o.RerankFrames < 0:
		return fmt.Errorf("options.rerank_frames must be >= 0, got %d", o.RerankFrames)
	case o.RerankFrames > maxKnob:
		return fmt.Errorf("options.rerank_frames must be <= %d, got %d", maxKnob, o.RerankFrames)
	}
	if err := core.ValidateMinRecall(o.MinRecall); err != nil {
		return fmt.Errorf("options.min_recall must lie in (0, 1], got %v", o.MinRecall)
	}
	return nil
}

// BoxJSON is a bounding box on the wire.
type BoxJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	W float64 `json:"w"`
	H float64 `json:"h"`
}

// ObjectJSON is one retrieved object on the wire.
type ObjectJSON struct {
	VideoID  int     `json:"video_id"`
	FrameIdx int     `json:"frame_idx"`
	Box      BoxJSON `json:"box"`
	Score    float32 `json:"score"`
	PatchID  int64   `json:"patch_id"`
}

// PlanJSON is the resolved execution plan on the wire: the exact knobs this
// query ran with, and the planner's provenance (kind, predicted recall).
type PlanJSON struct {
	Kind            string  `json:"kind"`
	Exact           bool    `json:"exact,omitempty"`
	FastK           int     `json:"fast_k"`
	ShardK          int     `json:"shard_k"`
	NProbe          int     `json:"nprobe,omitempty"`
	Ef              int     `json:"ef,omitempty"`
	RerankFrames    int     `json:"rerank_frames"`
	TopN            int     `json:"top_n"`
	SkipRerank      bool    `json:"skip_rerank,omitempty"`
	Int8            bool    `json:"int8,omitempty"`
	PredictedRecall float64 `json:"predicted_recall,omitempty"`
}

func toPlanJSON(p core.Plan) PlanJSON {
	return PlanJSON{
		Kind:            string(p.Kind),
		Exact:           p.Exact,
		FastK:           p.FastK,
		ShardK:          p.ShardK,
		NProbe:          p.NProbe,
		Ef:              p.Ef,
		RerankFrames:    p.RerankFrames,
		TopN:            p.TopN,
		SkipRerank:      p.SkipRerank,
		Int8:            p.Int8,
		PredictedRecall: p.PredictedRecall,
	}
}

// QueryResponse is the answer to one query.
type QueryResponse struct {
	Objects         []ObjectJSON `json:"objects"`
	CandidateFrames int          `json:"candidate_frames"`
	FastSearchMs    float64      `json:"fast_search_ms"`
	RerankMs        float64      `json:"rerank_ms"`
	Cached          bool         `json:"cached"`
	// Plan is the resolved plan this answer was computed under (for cache
	// hits: the plan the cached answer was computed under — identical, since
	// the cache keys on it).
	Plan PlanJSON `json:"plan"`
	// Trace is the query's span tree, echoed only when the request set
	// "debug": true. Tracing observes the execution — it never changes the
	// answer.
	Trace *SpanJSON `json:"trace,omitempty"`
}

type queryRequest struct {
	Query   string           `json:"query"`
	Options QueryOptionsJSON `json:"options"`
	// Debug asks the server to echo the query's span tree in the response.
	Debug bool `json:"debug,omitempty"`
}

type batchRequest struct {
	Queries []string         `json:"queries"`
	Options QueryOptionsJSON `json:"options"`
}

type batchResponse struct {
	Results []QueryResponse `json:"results"`
}

func toResponse(res *core.Result, plan core.Plan, cached bool) QueryResponse {
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
	}
}

// downBackends names the unhealthy shard backends: the worker address for
// a remote shard, the kind otherwise.
func downBackends(st shard.Status) []string {
	var down []string
	for _, b := range st.Backends {
		if !b.Healthy {
			name := b.Kind
			if b.Addr != "" {
				name = b.Addr
			}
			down = append(down, name)
		}
	}
	return down
}

// failUnavailable answers the not-ready 503, distinguishing "the index is
// still building" from "a shard backend is unreachable" — a distributed
// engine reports Built=false in both cases, and telling an operator to
// wait for an index that will never build wastes their incident.
func (s *Server) failUnavailable(w http.ResponseWriter, st shard.Status) {
	if down := downBackends(st); len(down) > 0 {
		s.failKind(w, http.StatusServiceUnavailable, "backend_down",
			"%d shard backend(s) unreachable: %s", len(down), strings.Join(down, ", "))
		return
	}
	s.fail(w, http.StatusServiceUnavailable, "index not built yet")
}

// allowMethod enforces one HTTP method uniformly across endpoints,
// answering 405 (with an Allow header) otherwise.
func (s *Server) allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		s.fail(w, http.StatusMethodNotAllowed, "%s required", method)
		return false
	}
	return true
}

// decodeBody reads at most limit bytes of JSON request body into v, so a
// hostile request costs bounded memory: an oversized body answers 413
// naming the limit, malformed JSON 400. It reports whether v is usable.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", limit)
	case err != nil:
		s.fail(w, http.StatusBadRequest, "bad JSON: %v", err)
	}
	return err == nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethod(w, r, http.MethodPost) {
		return
	}
	var req queryRequest
	if !s.decodeBody(w, r, maxQueryBody, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.fail(w, http.StatusBadRequest, "empty query")
		return
	}
	if err := validateOptions(req.Options); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.backend.Status()
	if !st.Built {
		s.failUnavailable(w, st)
		return
	}
	opts := s.resolveOptions(req.Options)
	// The same guard QueryBatch applies between its clients, applied
	// between HTTP requests: a lone query gets the full parallel rerank,
	// but once requests overlap, per-query NumCPU-wide grounding pools
	// would only oversubscribe the cores. Results are identical at every
	// width.
	if s.inflight.Add(1) > 1 {
		opts.Workers = 1
	}
	defer s.inflight.Add(-1)
	// Trace the query whenever anyone could see the trace: the slow log
	// retains the slowest recent ones for /debug/queries, and debug=true
	// echoes this one in the response. Tracing records what the execution
	// did — it never steers it, so answers are byte-identical either way.
	ctx := r.Context()
	var trace *obs.Trace
	var root obs.Span
	if req.Debug || s.slow.enabled() {
		trace = obs.NewTrace(obs.NewID())
		root = trace.Root("query")
		ctx = obs.With(ctx, root)
	}
	start := time.Now()
	res, plan, cached, err := s.query(ctx, req.Query, opts, st.Gen)
	if err != nil {
		s.fail(w, queryErrStatus(err), "%v", err)
		return
	}
	elapsed := time.Since(start)
	s.metrics.latency.observe(elapsed)
	s.metrics.queries.Add(1)
	resp := toResponse(res, plan, cached)
	if trace != nil {
		root.End()
		tree := spanTree(trace.Export())
		s.slow.note(slowEntry{
			At:         time.Now(),
			Query:      req.Query,
			PlanKind:   string(plan.Kind),
			Cached:     cached,
			DurationMs: float64(elapsed.Microseconds()) / 1000,
			Trace:      tree,
		})
		if req.Debug {
			resp.Trace = tree
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// query plans one query, then serves the plan through the cache, coalescing
// concurrent identical misses onto one backend call: without the
// single-flight guard, a thundering herd of the same cold query would
// recompute it once per request. The reported cached flag stays false for
// coalesced waiters — the backend did run for them, just not once each.
//
// Keying on the resolved plan (rather than the raw options) means requests
// that resolve to the same execution — a pinned plan and the option knobs
// it mirrors, say — share one cache entry, and adaptive requests are cached
// per chosen plan, not per bound. gen is the backend generation the
// request's status read observed; it stamps the cache lookup and entry.
func (s *Server) query(ctx context.Context, text string, opts core.QueryOptions, gen uint64) (*core.Result, core.Plan, bool, error) {
	planStart := time.Now()
	pctx, psp := obs.Start(ctx, "plan")
	plan, err := s.backend.PlanQueryCtx(pctx, text, opts)
	psp.End()
	s.metrics.observeStage("plan", time.Since(planStart))
	if err != nil {
		return nil, core.Plan{}, false, err
	}
	s.metrics.notePlan(string(plan.Kind))
	cacheStart := time.Now()
	_, csp := obs.Start(ctx, "cache")
	key := cacheKey(text, plan)
	res, hit := s.cache.get(key, gen)
	if hit {
		csp.Detail("hit")
	} else {
		csp.Detail("miss")
	}
	csp.End()
	s.metrics.observeStage("cache", time.Since(cacheStart))
	if hit {
		return res, plan, true, nil
	}
	res, coalesced, err := s.flight.do(flightKey(key, gen), func() (*core.Result, error) {
		res, err := s.backend.QueryPlanned(ctx, text, plan, opts.Workers)
		if err != nil {
			return nil, err
		}
		// The leader attributes the stage timings exactly once per
		// execution — coalesced waiters rode this run, they didn't repeat
		// it.
		s.metrics.observeStage("stage1", res.FastSearch)
		s.metrics.observeStage("rerank", res.Rerank)
		// Publish before the flight entry drops, so a request arriving
		// after coalescing ends hits the cache instead of recomputing.
		s.cache.put(key, gen, res)
		return res, nil
	})
	if err != nil {
		return nil, plan, false, err
	}
	if coalesced {
		// A waiter's trace carries no stage-1/rerank spans of its own (the
		// leader's request ran them); the cache span says why.
		csp.Detail("miss coalesced")
		s.cache.noteCoalesced()
	}
	return res, plan, false, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethod(w, r, http.MethodPost) {
		return
	}
	var req batchRequest
	if !s.decodeBody(w, r, maxQueryBody, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		s.fail(w, http.StatusRequestEntityTooLarge, "batch of %d queries exceeds the %d-query limit", len(req.Queries), maxBatchQueries)
		return
	}
	for _, q := range req.Queries {
		if strings.TrimSpace(q) == "" {
			s.fail(w, http.StatusBadRequest, "empty query in batch")
			return
		}
	}
	if err := validateOptions(req.Options); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.backend.Status()
	if !st.Built {
		s.failUnavailable(w, st)
		return
	}
	gen := st.Gen
	opts := s.resolveOptions(req.Options)
	// The same rerank-width guard handleQuery applies: a batch overlapping
	// any other /query or /query/batch must narrow each query's grounding
	// pool to one worker — the batch's own client pool (and the other
	// requests) already saturate the cores. Results are identical at
	// every width.
	if s.inflight.Add(1) > 1 {
		opts.Workers = 1
	}
	defer s.inflight.Add(-1)

	// Plan every query, serve what the cache can (keyed on each resolved
	// plan), and batch the rest through the backend's concurrent client
	// pool with their plans pre-resolved.
	start := time.Now()
	out := make([]QueryResponse, len(req.Queries))
	var missTexts []string
	var missPlans []core.Plan
	var missIdx []int
	for i, q := range req.Queries {
		plan, err := s.backend.PlanQueryCtx(r.Context(), q, opts)
		if err != nil {
			s.fail(w, queryErrStatus(err), "batch query %d (%q): %v", i, q, err)
			return
		}
		s.metrics.notePlan(string(plan.Kind))
		if res, ok := s.cache.get(cacheKey(q, plan), gen); ok {
			out[i] = toResponse(res, plan, true)
			continue
		}
		missTexts = append(missTexts, q)
		missPlans = append(missPlans, plan)
		missIdx = append(missIdx, i)
	}
	if len(missTexts) > 0 {
		results, err := s.backend.QueryBatchPlanned(r.Context(), missTexts, missPlans, opts.Workers, 0)
		if err != nil {
			s.fail(w, queryErrStatus(err), "%v", err)
			return
		}
		for j, res := range results {
			s.metrics.observeStage("stage1", res.FastSearch)
			s.metrics.observeStage("rerank", res.Rerank)
			s.cache.put(cacheKey(missTexts[j], missPlans[j]), gen, res)
			out[missIdx[j]] = toResponse(res, missPlans[j], false)
		}
	}
	elapsed := time.Since(start)
	// Attribute the batch wall-clock evenly: per-query percentiles from
	// batches would otherwise understate tail latency.
	per := elapsed / time.Duration(len(req.Queries))
	for range req.Queries {
		s.metrics.latency.observe(per)
	}
	s.metrics.batchQueries.Add(uint64(len(req.Queries)))
	writeJSON(w, http.StatusOK, batchResponse{Results: out})
}

// IngestResponse is the POST /ingest answer: what was accepted, and the
// generation the mutation advanced the backend to — the stamp that
// invalidates every cached answer computed before this video landed.
type IngestResponse struct {
	VideoID   int    `json:"video_id"`
	Frames    int    `json:"frames"`
	IngestGen uint64 `json:"ingest_gen"`
}

// maxIngestFrames bounds one live-ingest video. A million frames is hours
// of footage in one request body — past it the payload is abuse, not video.
const maxIngestFrames = 1 << 20

// maxIngestBody bounds an /ingest request body, so the frame-count check
// above never runs over a video already buffered without limit. Live clips
// are tens of frames (a few hundred KiB of scene JSON); 64 MiB leaves
// ample room for long ones.
const maxIngestBody = 64 << 20

// handleIngest is the live-ingest serving path: one video.Video as JSON,
// routed to the owning shard (which fans it out to its replicas). The
// ingest generation moving invalidates stale cache entries on their next
// lookup, so queries racing the ingest never see a mix of old and new
// corpus in one answer.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethod(w, r, http.MethodPost) {
		return
	}
	var v video.Video
	if !s.decodeBody(w, r, maxIngestBody, &v) {
		return
	}
	switch {
	case v.ID < 0 || v.ID > core.MaxVideoID:
		s.fail(w, http.StatusBadRequest, "video id must lie in [0, %d], got %d", core.MaxVideoID, v.ID)
		return
	case len(v.Frames) == 0:
		s.fail(w, http.StatusBadRequest, "video %d has no frames", v.ID)
		return
	case len(v.Frames) > maxIngestFrames:
		s.fail(w, http.StatusBadRequest, "video %d has %d frames, limit %d per request", v.ID, len(v.Frames), maxIngestFrames)
		return
	}
	for i := range v.Frames {
		f := &v.Frames[i]
		if f.Index < 0 || f.Index > core.MaxFrameIdx {
			s.fail(w, http.StatusBadRequest, "frame %d: index %d outside [0, %d]", i, f.Index, core.MaxFrameIdx)
			return
		}
		if f.VideoID != v.ID {
			s.fail(w, http.StatusBadRequest, "frame %d: video_id %d != video id %d", i, f.VideoID, v.ID)
			return
		}
	}
	if err := s.backend.Ingest(&v); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vectordb.ErrDuplicate) || errors.Is(err, relational.ErrDuplicateKey) {
			// The patch IDs collided: this video (or one reusing its ID) is
			// already in the corpus. Either store can notice first — the
			// relational patch table and the vector collection share the key.
			status = http.StatusConflict
		}
		s.fail(w, status, "ingest: %v", err)
		return
	}
	s.metrics.ingests.Add(1)
	writeJSON(w, http.StatusOK, IngestResponse{
		VideoID:   v.ID,
		Frames:    len(v.Frames),
		IngestGen: s.backend.Status().Gen,
	})
}

// StatsResponse is the /stats payload. Every backend-derived field comes
// from one Status snapshot, so the fields of one response describe the same
// moment.
type StatsResponse struct {
	Ingest   core.IngestStats `json:"ingest"`
	Entities int              `json:"entities"`
	Built    bool             `json:"built"`
	Shards   int              `json:"shards"`
	Replicas int              `json:"replicas,omitempty"`
	// ReplicaGroups reports per-group replica health, read counts and
	// in-flight load.
	ReplicaGroups [][]shard.ReplicaStat `json:"replica_groups,omitempty"`
	// Backends reports per-shard backend kind, address and health.
	Backends []shard.BackendStat `json:"backends,omitempty"`
	// Segments reports the streaming segment breakdown (summed across
	// shards) when the backend streams; absent for monolithic batch
	// deployments.
	Segments     *SegmentStatsJSON `json:"segments,omitempty"`
	IngestGen    uint64            `json:"ingest_gen"`
	Cache        CacheStats        `json:"cache"`
	QueriesTotal uint64            `json:"queries_total"`
	BatchTotal   uint64            `json:"batch_queries_total"`
	ErrorsTotal  uint64            `json:"errors_total"`
	// Plans counts resolved plans by kind ("fixed", "pinned", "adaptive",
	// "adaptive-exact") across /query and /query/batch.
	Plans map[string]uint64 `json:"plans,omitempty"`
	// LastMeasuredRecall is the stage-1 recall most recently measured by the
	// planner's validation loop; 0 until a validation probe has run.
	LastMeasuredRecall float64 `json:"last_measured_recall,omitempty"`
	LatencyP50Ms       float64 `json:"latency_p50_ms"`
	LatencyP99Ms       float64 `json:"latency_p99_ms"`
	// KernelTier is the active float32 scoring-kernel tier ("avx2",
	// "sse2", "neon" or "purego") — every tier is bit-identical, so this
	// is provenance for perf triage, not a correctness knob.
	KernelTier    string  `json:"kernel_tier"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// SegmentStatsJSON is the streaming segment breakdown on the wire.
// RawBytes is the rows — the one resident copy of every vector and id;
// IndexBytes is the sealed indexes' own codes, lists, graphs and int8
// sidecars, which borrow those rows and never count them.
type SegmentStatsJSON struct {
	Sealed        int    `json:"sealed"`
	Building      int    `json:"building"`
	Growing       int    `json:"growing"`
	GrowingLen    int    `json:"growing_len"`
	SealedVectors int    `json:"sealed_vectors"`
	RawBytes      int64  `json:"raw_bytes"`
	IndexBytes    int64  `json:"index_bytes"`
	Seals         uint64 `json:"seals_total"`
	Compactions   uint64 `json:"compactions_total"`
	IngestsTotal  uint64 `json:"ingests_total"`
}

// segmentStats renders the streaming segment breakdown; nil for batch
// backends.
func (s *Server) segmentStats(st vectordb.SegmentStats) *SegmentStatsJSON {
	if !st.Streaming {
		return nil
	}
	return &SegmentStatsJSON{
		Sealed:        st.Sealed,
		Building:      st.Building,
		Growing:       st.Growing,
		GrowingLen:    st.GrowingLen,
		SealedVectors: st.SealedVectors,
		RawBytes:      st.RawBytes,
		IndexBytes:    st.IndexBytes,
		Seals:         st.Seals,
		Compactions:   st.Compactions,
		IngestsTotal:  s.metrics.ingests.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	st := s.backend.Status()
	writeJSON(w, http.StatusOK, StatsResponse{
		Ingest:             st.Ingest,
		Entities:           st.Entities,
		Built:              st.Built,
		Shards:             s.cfg.Shards,
		Replicas:           st.Replicas,
		ReplicaGroups:      st.ReplicaGroups,
		Backends:           st.Backends,
		Segments:           s.segmentStats(st.Segments),
		IngestGen:          st.Gen,
		Cache:              s.cache.stats(),
		QueriesTotal:       s.metrics.queries.Load(),
		BatchTotal:         s.metrics.batchQueries.Load(),
		ErrorsTotal:        s.metrics.errors.Load(),
		Plans:              s.metrics.planCounts(),
		LastMeasuredRecall: st.LastMeasuredRecall,
		LatencyP50Ms:       s.metrics.latency.quantile(0.50) * 1000,
		LatencyP99Ms:       s.metrics.latency.quantile(0.99) * 1000,
		KernelTier:         mat.KernelTier(),
		UptimeSeconds:      time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	st := s.backend.Status()
	down := len(downBackends(st))
	// Any unhealthy shard backend degrades the health report (still 200 —
	// the serving tier itself is alive; orchestrators key on the status
	// string).
	status := "ok"
	if down > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        status,
		"built":         st.Built,
		"entities":      st.Entities,
		"backends":      st.Backends,
		"backends_down": down,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	cs := s.cache.stats()
	st := s.backend.Status()
	counter(w, "lovod_queries_total", s.metrics.queries.Load())
	counter(w, "lovod_batch_queries_total", s.metrics.batchQueries.Load())
	counter(w, "lovod_ingest_total", s.metrics.ingests.Load())
	counter(w, "lovod_errors_total", s.metrics.errors.Load())
	s.metrics.writeErrorMetrics(w)
	counter(w, "lovod_cache_hits_total", cs.Hits)
	counter(w, "lovod_cache_misses_total", cs.Misses)
	counter(w, "lovod_cache_evictions_total", cs.Evicted)
	counter(w, "lovod_cache_coalesced_total", cs.Coalesced)
	gauge(w, "lovod_cache_entries", float64(cs.Entries))
	gauge(w, "lovod_index_entities", float64(st.Entities))
	gauge(w, "lovod_ingest_generation", float64(st.Gen))
	writePlanMetrics(w, s.metrics.planCounts())
	gauge(w, "lovod_planner_last_measured_recall", st.LastMeasuredRecall)
	writeReplicaMetrics(w, st.ReplicaGroups)
	writeBackendMetrics(w, st.Backends)
	if seg := s.segmentStats(st.Segments); seg != nil {
		writeSegmentMetrics(w, seg)
	}
	s.metrics.latency.writeProm(w, "lovod_query_latency_seconds")
	s.metrics.writeStageMetrics(w, "lovod_stage_seconds")
}

// writeReplicaMetrics renders per-replica health and read counters with
// group/replica labels.
func writeReplicaMetrics(w io.Writer, groups [][]shard.ReplicaStat) {
	fmt.Fprintf(w, "# TYPE lovod_replica_healthy gauge\n")
	for gi, g := range groups {
		for ri, st := range g {
			v := 0
			if st.Healthy {
				v = 1
			}
			fmt.Fprintf(w, "lovod_replica_healthy{group=\"%d\",replica=\"%d\"} %d\n", gi, ri, v)
		}
	}
	fmt.Fprintf(w, "# TYPE lovod_replica_reads_total counter\n")
	for gi, g := range groups {
		for ri, st := range g {
			fmt.Fprintf(w, "lovod_replica_reads_total{group=\"%d\",replica=\"%d\"} %d\n", gi, ri, st.Reads)
		}
	}
}

// writeSegmentMetrics renders the streaming segment breakdown: a per-state
// segment gauge plus the maintenance counters that show background seals
// and compactions making progress.
func writeSegmentMetrics(w io.Writer, seg *SegmentStatsJSON) {
	fmt.Fprintf(w, "# TYPE lovod_segments gauge\n")
	fmt.Fprintf(w, "lovod_segments{state=\"sealed\"} %d\n", seg.Sealed)
	fmt.Fprintf(w, "lovod_segments{state=\"building\"} %d\n", seg.Building)
	fmt.Fprintf(w, "lovod_segments{state=\"growing\"} %d\n", seg.Growing)
	gauge(w, "lovod_segment_growing_vectors", float64(seg.GrowingLen))
	gauge(w, "lovod_segment_sealed_vectors", float64(seg.SealedVectors))
	counter(w, "lovod_seals_total", seg.Seals)
	counter(w, "lovod_compactions_total", seg.Compactions)
}

// writeBackendMetrics renders per-shard backend health with shard/kind
// labels.
func writeBackendMetrics(w io.Writer, stats []shard.BackendStat) {
	fmt.Fprintf(w, "# TYPE lovod_backend_healthy gauge\n")
	for i, st := range stats {
		v := 0
		if st.Healthy {
			v = 1
		}
		fmt.Fprintf(w, "lovod_backend_healthy{shard=\"%d\",kind=\"%s\"} %d\n", i, st.Kind, v)
	}
}

// queryErrStatus maps a backend query error to an HTTP status: queries with
// no recognised vocabulary are the client's problem, everything else is
// ours.
func queryErrStatus(err error) int {
	if errors.Is(err, core.ErrNoRecognisedTerms) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// errKindForStatus classifies a failed request for the per-kind error
// counter: 4xx means the request was bad, 503 means the index is not ready
// (failUnavailable overrides with "backend_down" when it knows better), and
// everything else is our fault.
func errKindForStatus(status int) string {
	switch {
	case status == http.StatusServiceUnavailable:
		return "not_ready"
	case status >= 400 && status < 500:
		return "validation"
	default:
		return "internal"
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.failKind(w, status, errKindForStatus(status), format, args...)
}

func (s *Server) failKind(w http.ResponseWriter, status int, kind string, format string, args ...any) {
	s.metrics.noteError(kind)
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
