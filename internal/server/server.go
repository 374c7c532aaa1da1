// Package server is LOVO's network serving tier: a net/http JSON API over
// the sharded scatter-gather engine, fronted by a bounded LRU query-result
// cache and text-format metrics.
//
// Endpoints:
//
//	POST /query          {"query": "...", "options": {...}} -> ranked objects
//	POST /query/batch    {"queries": [...], "options": {...}} -> per-query results
//	POST /ingest         one video.Video as JSON -> live ingest (any store)
//	GET  /stats          ingest, cache, backend and latency statistics as JSON
//	GET  /healthz        liveness (always 200 once listening; reports built)
//	GET  /metrics        Prometheus text-format counters and latency histograms
//	GET  /debug/queries  the slowest recent query traces as JSON (see debug.go)
//
// Every endpoint enforces its method (405 otherwise). /query and
// /query/batch differ only in their body shape: a /query is a batch of one,
// and both run one pipeline (Server.serve) — plan, cache, coalesce, one
// backend batch for the misses the request leads, stage metrics and a
// slow-log trace per request. Identical cache misses in flight at once —
// across requests of either kind, or twice in one batch — coalesce onto one
// backend execution, and overlapping requests narrow each query's rerank
// pool to one worker so concurrent traffic never oversubscribes the cores.
// The Backend is five methods: plan one query, execute a batch of plans,
// ingest, one Status snapshot, and the Pushed generation a request served
// wholly from the cache reads instead.
//
// Every query is planned before it executes: the backend resolves the
// request options into an explicit core.Plan (the fixed defaults with the
// options' overrides), the cache keys on (query text, resolved plan), and
// the response echoes the plan that ran. An option the server does not know
// is refused with a 400 naming it, never silently dropped.
// Each entry is stamped with the backend's ingest generation, so any ingest
// or index build anywhere in the engine invalidates stale answers on their
// next lookup — at once for writes through this server's backend, and as
// soon as the shards push their new generation for writes through another.
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
	"repro/internal/shard"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// Backend is what the server serves: *shard.Engine satisfies it (a single
// system is served as a one-shard engine). The server always queries in two
// steps — plan each query, then execute the misses as one batch (a lone
// query is a batch of one) — so it can key the result cache on the resolved
// plan and report which plans the backend is choosing. The query contexts
// carry the request's tracing recorder (see internal/obs); tracing never
// changes an answer. Status is the backend's one consistent snapshot: a
// request with a cache miss reads built, generation and backend health from
// one call, and /stats, /healthz and /metrics each render from one. Pushed
// is the generation and built flag the backend's shards last pushed, read
// without asking any of them: a request whose every query hits the cache at
// that generation reads nothing else, and !ok sends it to Status.
type Backend interface {
	PlanQueryCtx(ctx context.Context, text string, opts core.QueryOptions) (core.Plan, error)
	QueryBatchPlanned(ctx context.Context, texts []string, plans []core.Plan, workers, clients int) ([]*core.Result, error)
	Ingest(v *video.Video) error
	Status() shard.Status
	Pushed() (gen uint64, built, ok bool)
}

// Config tunes the serving tier.
type Config struct {
	// CacheSize bounds the LRU query-result cache in entries; 0 disables
	// caching.
	CacheSize int
	// Shards is reported in /stats (informational; the backend hides its
	// own partitioning).
	Shards int
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
	RerankFrames  int  `json:"rerank_frames,omitempty"`
}

func (o QueryOptionsJSON) toCore() core.QueryOptions {
	return core.QueryOptions{
		FastK:         o.FastK,
		TopN:          o.TopN,
		DisableRerank: o.DisableRerank,
		Exhaustive:    o.Exhaustive,
		RerankFrames:  o.RerankFrames,
	}
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

// maxQueryText bounds one query's text in bytes: the result cache and the
// slow log both key on the full text, so without it a few hundred
// mebibyte-long texts would pin gigabytes. Real queries are a sentence.
const maxQueryText = 4096

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
// query ran with, and their provenance (kind).
type PlanJSON struct {
	Kind         string `json:"kind"`
	Exact        bool   `json:"exact,omitempty"`
	FastK        int    `json:"fast_k"`
	ShardK       int    `json:"shard_k"`
	NProbe       int    `json:"nprobe,omitempty"`
	Ef           int    `json:"ef,omitempty"`
	RerankFrames int    `json:"rerank_frames"`
	TopN         int    `json:"top_n"`
	SkipRerank   bool   `json:"skip_rerank,omitempty"`
	// Deprecated: ignored; remains only because benchmark/ names it — removed with ROADMAP item 1.
	Int8 bool `json:"int8,omitempty"`
}

func toPlanJSON(p core.Plan) PlanJSON {
	return PlanJSON{
		Kind:         string(p.Kind),
		Exact:        p.Exact,
		FastK:        p.FastK,
		ShardK:       p.ShardK,
		NProbe:       p.NProbe,
		Ef:           p.Ef,
		RerankFrames: p.RerankFrames,
		TopN:         p.TopN,
		SkipRerank:   p.SkipRerank,
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

// errTrailingData marks a request body holding more than one JSON value:
// a second value would otherwise be dropped without a word.
var errTrailingData = errors.New("trailing data after the JSON body")

// decodeBody reads at most limit bytes of JSON request body into v, so a
// hostile request costs bounded memory: an oversized body answers 413
// naming the limit, malformed JSON 400, a field v does not have 400 naming
// it, so a retired option or a misspelt field is refused rather than
// silently dropped, and anything but whitespace after the one JSON value
// 400. It reports whether v is usable.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooBig) {
			err = errTrailingData
		}
	}
	switch {
	case errors.As(err, &tooBig):
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", limit)
	case err == errTrailingData:
		s.fail(w, http.StatusBadRequest, "%v", err)
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
	if len(req.Query) > maxQueryText {
		s.fail(w, http.StatusRequestEntityTooLarge, "query text of %d bytes exceeds the %d-byte limit", len(req.Query), maxQueryText)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.fail(w, http.StatusBadRequest, "empty query")
		return
	}
	if out := s.serve(w, r, []string{req.Query}, req.Options, req.Debug); out != nil {
		if s.reply(w, func(e *encoder) { e.answer(&out[0]) }) {
			s.metrics.queries.Add(1)
		}
	}
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
	for i, q := range req.Queries {
		if len(q) > maxQueryText {
			s.fail(w, http.StatusRequestEntityTooLarge, "batch query %d: text of %d bytes exceeds the %d-byte limit", i, len(q), maxQueryText)
			return
		}
		if strings.TrimSpace(q) == "" {
			s.fail(w, http.StatusBadRequest, "empty query in batch")
			return
		}
	}
	if out := s.serve(w, r, req.Queries, req.Options, false); out != nil {
		if s.reply(w, func(e *encoder) { e.answers(out) }) {
			s.metrics.batchQueries.Add(uint64(len(req.Queries)))
		}
	}
}

// serve is the one serving pipeline under /query (a batch of one) and
// /query/batch: plan each query under a "plan" span, look each plan up in
// the result cache under a "cache" span, join the misses' flights, run the
// misses this request leads as ONE backend batch — encoding each answer's
// fragment once, before its flight publishes — wait for the ones other
// requests lead, then record latency and offer the trace to the slow log.
// Cache entries and flights key on (text, resolved plan) at the generation
// this request saw, so requests that resolve to the same execution share
// it — duplicates inside one batch too — and a coalesced answer reports
// cached=false. The generation is the backend's pushed one while every
// query hits, so a request served wholly from the cache asks no shard
// anything; the first miss — or a pushed view that is not live or not
// built — reads Status, answers 503 when the backend is not built, and runs
// the misses at that read's generation. The request is traced whenever
// anyone could see the trace (the slow log, or debug, which echoes it on
// the first response), but its span tree is built only when debug echoes it
// or the slow log would admit it; tracing never steers an answer. On failure
// serve has answered w itself and returns nil.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, texts []string, o QueryOptionsJSON, debug bool) []answer {
	if err := validateOptions(o); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	opts := o.toCore()
	gen, built, pushed := s.backend.Pushed()
	pushed = pushed && built
	readStatus := func() bool {
		st := s.backend.Status()
		if !st.Built {
			s.failUnavailable(w, st)
			return false
		}
		gen = st.Gen
		return true
	}
	if !pushed && !readStatus() {
		return nil
	}
	// The executor's guard between a batch's clients, applied between
	// requests (see inflight); answers are identical at every width.
	if s.inflight.Add(1) > 1 {
		opts.Workers = 1
	}
	defer s.inflight.Add(-1)
	ctx := r.Context()
	var trace *obs.Trace
	var root obs.Span
	if debug || s.slow.enabled() {
		trace = obs.NewTrace(obs.NewID())
		root = trace.Root("query")
		ctx = obs.With(ctx, root)
	}
	start := time.Now()
	plans := make([]core.Plan, len(texts))
	cacheKeys := make([]string, len(texts))
	cacheSpans := make([]obs.Span, len(texts))
	out := make([]answer, len(texts))
	var keys []string             // distinct flight keys of the misses, in query order
	waiting := map[string][]int{} // flight key -> its queries; the first one executes
	for i, text := range texts {
		planStart := time.Now()
		pctx, psp := obs.Start(ctx, "plan")
		plan, err := s.backend.PlanQueryCtx(pctx, text, opts)
		psp.End()
		s.metrics.observeStage("plan", time.Since(planStart))
		if err != nil {
			if len(texts) > 1 {
				err = fmt.Errorf("batch query %d (%q): %w", i, text, err)
			}
			s.fail(w, queryErrStatus(err), "%v", err)
			return nil
		}
		s.metrics.notePlan(string(plan.Kind))
		plans[i], cacheKeys[i] = plan, cacheKey(text, plan)
		cacheStart := time.Now()
		_, cacheSpans[i] = obs.Start(ctx, "cache")
		frag, hit := s.cache.get(cacheKeys[i], gen)
		if hit {
			cacheSpans[i].Detail("hit")
		} else {
			cacheSpans[i].Detail("miss")
		}
		cacheSpans[i].End()
		s.metrics.observeStage("cache", time.Since(cacheStart))
		if hit {
			out[i] = answer{frag: frag, cached: true, plan: plan}
			continue
		}
		if pushed {
			pushed = false
			if !readStatus() {
				return nil
			}
		}
		fk := flightKey(cacheKeys[i], gen)
		if waiting[fk] == nil {
			keys = append(keys, fk)
		}
		waiting[fk] = append(waiting[fk], i)
	}
	cached := len(keys) == 0
	// A round leads the keys nobody holds and waits on the rest. An error
	// from another request's batch of several queries may be one of its
	// other queries' fault, so such a key gets one more round before its
	// error counts.
	for round := 0; len(keys) > 0; round++ {
		calls, led := s.flight.join(keys)
		var run []*flightCall
		var runQueries []int
		var runTexts []string
		var runPlans []core.Plan
		for j, k := range keys {
			if i := waiting[k][0]; led[j] {
				run, runQueries = append(run, calls[j]), append(runQueries, i)
				runTexts, runPlans = append(runTexts, texts[i]), append(runPlans, plans[i])
			}
		}
		if len(run) > 0 {
			s.flight.run(run, func() ([]*fragment, error) {
				results, err := s.backend.QueryBatchPlanned(ctx, runTexts, runPlans, opts.Workers, 0)
				frags := make([]*fragment, len(results))
				for j, res := range results {
					s.metrics.observeStage("stage1", res.FastSearch)
					s.metrics.observeStage("rerank", res.Rerank)
					frags[j] = encodeFragment(res)
					// Published before the flights end, so a request arriving
					// after them hits the cache instead of recomputing.
					s.cache.put(cacheKeys[runQueries[j]], gen, frags[j])
				}
				return frags, err
			})
		}
		var retry []string
		for j, c := range calls {
			<-c.done
			if c.err != nil && !led[j] && c.shared && round == 0 {
				retry = append(retry, keys[j])
				continue
			}
			if c.err != nil {
				s.fail(w, queryErrStatus(c.err), "%v", c.err)
				return nil
			}
			for n, i := range waiting[keys[j]] {
				out[i] = answer{frag: c.frag, plan: plans[i]}
				if !led[j] || n > 0 {
					// This query's stage-1/rerank spans are in another
					// execution's trace; the cache span says why.
					cacheSpans[i].Detail("miss coalesced")
					s.cache.noteCoalesced()
				}
			}
		}
		keys = retry
	}
	// A batch's wall clock is attributed evenly: per-query percentiles from
	// batches would otherwise understate tail latency.
	elapsed := time.Since(start)
	for range texts {
		s.metrics.latency.observe(elapsed / time.Duration(len(texts)))
	}
	if trace != nil {
		root.End()
		at, ms := time.Now(), float64(elapsed.Microseconds())/1000
		if debug || s.slow.admits(at, ms) {
			tree := spanTree(trace.Export())
			s.slow.note(slowEntry{
				At:         at,
				Query:      texts[0],
				BatchSize:  len(texts),
				PlanKind:   string(plans[0].Kind),
				Cached:     cached,
				DurationMs: ms,
				Trace:      tree,
			})
			if debug {
				out[0].trace = tree
			}
		}
	}
	return out
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
// routed to the owning shard. The
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
			s.fail(w, http.StatusBadRequest, "frame %d: VideoID %d != ID %d", i, f.VideoID, v.ID)
			return
		}
	}
	if err := s.backend.Ingest(&v); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, vectordb.ErrDuplicate) {
			// The patch IDs collided: this video (or one reusing its ID) is
			// already in the corpus, and nothing was stored.
			status = http.StatusConflict
		}
		s.fail(w, status, "ingest: %v", err)
		return
	}
	s.metrics.ingests.Add(1)
	s.replyJSON(w, IngestResponse{
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
	// Backends reports per-shard backend kind, address and health.
	Backends []shard.BackendStat `json:"backends,omitempty"`
	// Segments reports the segment breakdown (summed across shards) when
	// the backend's store is segmented; absent for batch deployments.
	Segments     *SegmentStatsJSON `json:"segments,omitempty"`
	IngestGen    uint64            `json:"ingest_gen"`
	Cache        CacheStats        `json:"cache"`
	QueriesTotal uint64            `json:"queries_total"`
	BatchTotal   uint64            `json:"batch_queries_total"`
	ErrorsTotal  uint64            `json:"errors_total"`
	// Plans counts resolved plans by kind ("fixed", "pinned") across
	// /query and /query/batch.
	Plans        map[string]uint64 `json:"plans,omitempty"`
	LatencyP50Ms float64           `json:"latency_p50_ms"`
	LatencyP99Ms float64           `json:"latency_p99_ms"`
	// KernelTier is the active float32 scoring-kernel tier ("avx2",
	// "sse2", "neon" or "purego") — every tier is bit-identical, so this
	// is provenance for perf triage, not a correctness knob.
	KernelTier    string  `json:"kernel_tier"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// SegmentStatsJSON is the segment breakdown on the wire.
// RawBytes is the rows — the one resident copy of every vector and id;
// IndexBytes is the sealed indexes' own codes, lists and graphs, which
// borrow those rows and never count them.
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

// segmentStats renders the segment breakdown; nil for batch backends,
// which report no growing segment.
func (s *Server) segmentStats(st vectordb.SegmentStats) *SegmentStatsJSON {
	if st.Growing == 0 {
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
	s.replyJSON(w, StatsResponse{
		Ingest:        st.Ingest,
		Entities:      st.Entities,
		Built:         st.Built,
		Shards:        s.cfg.Shards,
		Backends:      st.Backends,
		Segments:      s.segmentStats(st.Segments),
		IngestGen:     st.Gen,
		Cache:         s.cache.stats(),
		QueriesTotal:  s.metrics.queries.Load(),
		BatchTotal:    s.metrics.batchQueries.Load(),
		ErrorsTotal:   s.metrics.errors.Load(),
		Plans:         s.metrics.planCounts(),
		LatencyP50Ms:  s.metrics.latency.quantile(0.50) * 1000,
		LatencyP99Ms:  s.metrics.latency.quantile(0.99) * 1000,
		KernelTier:    mat.KernelTier(),
		UptimeSeconds: time.Since(s.started).Seconds(),
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
	s.replyJSON(w, map[string]any{
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
	writeBackendMetrics(w, st.Backends)
	if seg := s.segmentStats(st.Segments); seg != nil {
		writeSegmentMetrics(w, seg)
	}
	s.metrics.latency.writeProm(w, "lovod_query_latency_seconds")
	s.metrics.writeStageMetrics(w, "lovod_stage_seconds")
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

// writeJSON writes an error body (or the debug tier's), which cannot fail to
// encode; success bodies on the serving port go through reply.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
