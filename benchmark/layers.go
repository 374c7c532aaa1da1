package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/query"
	"repro/internal/remote"
	"repro/internal/vectordb"
	"repro/internal/video"
	"repro/internal/vit"
	"repro/internal/xmodal"
)

// The traced pass. With the window over and the system quiet, the harness
// re-composes each operation from the layers' public functions (the same
// composition core.ExecutePlan runs over shard.Engine's scatter) with a span
// around every call, serially, and derives the per-layer metrics from span
// times. It also runs each operation through HTTP and through the engine
// untraced, which gives the HTTP tier's overhead, the tracing overhead, and
// proof that the re-composition is the real thing: its answer must equal
// the HTTP answer byte for byte.

// layerKit rebuilds, from the shared Config, the encoders core.System keeps
// private. The seeds mirror core.New; if they drift, re-composed answers stop
// matching the HTTP answers and the run fails.
type layerKit struct {
	cfg    core.Config
	space  *embed.Space
	text   *embed.TextEncoder
	vision vit.Config
	model  *xmodal.Model
}

func newLayerKit(cfg core.Config) *layerKit {
	cfg = cfg.Resolved()
	space := embed.NewSpace(cfg.Dim, cfg.ProjDim, cfg.Seed^0x5bace)
	return &layerKit{
		cfg:   cfg,
		space: space,
		text:  &embed.TextEncoder{Space: space},
		vision: vit.Config{GridW: cfg.GridW, GridH: cfg.GridH,
			Encoder: &embed.VisionEncoder{Space: space, Seed: cfg.Seed ^ 0x115}},
		model: xmodal.New(space, cfg.Rerank),
	}
}

// annParams is the index effort a plan leg searches with (core's own mapping
// is unexported).
func annParams(p core.Plan) ann.Params {
	return ann.Params{NProbe: p.NProbe, Ef: p.Ef, Exhaustive: p.Exact, Int8: p.Int8}
}

// searchVectors is one shard's vector search, whichever store it runs.
func searchVectors(sys *core.System, q mat.Vec, k int, p ann.Params) ([]mat.Scored, error) {
	if seg := sys.Segmented(); seg != nil {
		return seg.Search(q, k, p)
	}
	return sys.Collection().Search(q, k, p)
}

// searchVectorsBatch searches for several queries of one shape at once: one
// shared sweep on a monolithic collection, one search per query on a
// segmented store (as core.System does).
func searchVectorsBatch(sys *core.System, qs []mat.Vec, k int, p ann.Params) error {
	if col := sys.Collection(); col != nil {
		_, err := col.SearchBatch(qs, k, p)
		return err
	}
	for _, q := range qs {
		if _, err := searchVectors(sys, q, k, p); err != nil {
			return err
		}
	}
	return nil
}

// workloadOptions decodes the workload's request options into the options
// the engine plans with.
func (r *runner) workloadOptions() (core.QueryOptions, error) {
	var o struct {
		Exhaustive    bool `json:"exhaustive"`
		DisableRerank bool `json:"disable_rerank"`
	}
	err := json.Unmarshal([]byte(r.w.Options), &o)
	return core.QueryOptions{Exhaustive: o.Exhaustive, DisableRerank: o.DisableRerank}, err
}

// recomposed is one re-composed operation.
type recomposed struct {
	results []*core.Result
	// root is the operation's root span.
	root int
	// stage1 is each shard leg's stage-1 time.
	stage1 [shards]time.Duration
	// reranked counts the frames sent to stage 2.
	reranked int
}

// recompose executes one operation (one query, or one batch) as the engine
// would, a span around every layer call.
func (r *runner) recompose(ctx context.Context, tr *tracer, op int, texts []string, opts core.QueryOptions) (*recomposed, error) {
	eng := r.st.eng
	root := tr.begin(op, -1, "op")
	defer tr.end(root)
	out := &recomposed{root: root, results: make([]*core.Result, len(texts))}

	plans := make([]core.Plan, len(texts))
	var err error
	tr.timed(op, root, "core.plan", func() {
		for i, text := range texts {
			if plans[i], err = eng.PlanQueryCtx(ctx, text, opts); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Stage 1: every shard leg in parallel, as Engine.ScatterSearch(Batch).
	lists := make([][][]core.ResultObject, shards) // [leg][query]
	errs := make([]error, shards)
	core.ParallelFor(shards, shards, func(leg int) {
		out.stage1[leg] = tr.timed(op, root, "core.stage1", func() {
			sys := r.st.system(leg)
			if len(texts) == 1 {
				fh, err := sys.SearchPlanned(ctx, texts[0], plans[0].Leg(leg))
				if err != nil {
					errs[leg] = err
					return
				}
				lists[leg] = [][]core.ResultObject{fh.Objects}
				return
			}
			legs := make([]core.Plan, len(plans))
			for i := range plans {
				legs[i] = plans[i].Leg(leg)
			}
			fhs, err := sys.SearchPlannedBatch(ctx, texts, legs)
			if err != nil {
				errs[leg] = err
				return
			}
			for _, fh := range fhs {
				lists[leg] = append(lists[leg], fh.Objects)
			}
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for qi, text := range texts {
		plan := plans[qi]
		var merged []core.ResultObject
		var refs []core.FrameRef
		tr.timed(op, root, "core.merge", func() {
			perLeg := make([][]core.ResultObject, shards)
			for leg := range perLeg {
				perLeg[leg] = lists[leg][qi]
			}
			merged = core.MergeHits(perLeg, plan.FastK)
			refs = core.CandidateFrames(merged)
		})
		res := &core.Result{CandidateFrames: len(refs)}
		out.results[qi] = res
		if plan.SkipRerank {
			// The plan has no stage 2; the span records that it cost nothing.
			tr.timed(op, root, "core.stage2", func() {})
			tr.timed(op, root, "core.rank", func() { res.Objects = core.DedupHits(merged, plan.FastK) })
			continue
		}
		tr.timed(op, root, "core.select", func() { refs = core.SelectForRerank(refs, plan.RerankFrames) })
		// Stage 2: each frame grounds on the shard that owns its video
		// (ID modulo N, as Engine.owner), legs in parallel.
		type routed struct {
			refs []core.FrameRef
			pos  []int
		}
		byLeg := make([]routed, shards)
		for pos, ref := range refs {
			leg := ref.VideoID % shards
			byLeg[leg].refs = append(byLeg[leg].refs, ref)
			byLeg[leg].pos = append(byLeg[leg].pos, pos)
		}
		groundings := make([]core.Grounding, len(refs))
		core.ParallelFor(shards, shards, func(leg int) {
			if len(byLeg[leg].refs) == 0 {
				return
			}
			tr.timed(op, root, "core.stage2", func() {
				gs := r.st.system(leg).GroundCandidates(ctx, text, byLeg[leg].refs, 0)
				for j, g := range gs {
					groundings[byLeg[leg].pos[j]] = g
				}
			})
		})
		tr.timed(op, root, "core.rank", func() { res.Objects = core.RankGroundings(groundings, plan.TopN) })
		out.reranked += len(refs)
	}
	return out, nil
}

// tracedRun is the state of one traced pass.
type tracedRun struct {
	tr   *tracer
	kit  *layerKit
	opts core.QueryOptions
	// width is the queries per operation: 1, or batchSize on /query/batch.
	width  int
	path   string
	texts  []string
	quoted [][]byte

	// Per-operation series, in microseconds.
	http, direct, traced, cachedRTT []float64
	parse, encode, search, join     []float64
	candidates, reranked, queries   float64
}

// tracedPass runs the traced operations and the standalone layer probes.
func (r *runner) tracedPass(ctx context.Context) error {
	start := time.Now()
	t := &tracedRun{tr: newTracer(), kit: newLayerKit(r.st.cfg), width: 1, path: "/query"}
	if r.w.Traffic == trafficBatch {
		t.width, t.path = batchSize, "/query/batch"
	}
	var err error
	if t.opts, err = r.workloadOptions(); err != nil {
		return err
	}
	nOps := (r.size.tracedOps + t.width - 1) / t.width
	if t.texts, err = genPool(r.cfg.Seed, streamTracePool, nOps*t.width, nil); err != nil {
		return err
	}
	t.quoted = quoteAll(t.texts)
	for op := 0; op < nOps; op++ {
		if err := r.tracedOp(ctx, t, op); err != nil {
			return err
		}
	}
	r.deriveFromSpans(t)
	if err := r.probeLayers(ctx, t.kit, t.texts, t.opts); err != nil {
		return err
	}
	if err := r.probeRPC(ctx, t.texts); err != nil {
		return err
	}
	r.logf("traced pass: %d operations, %d spans, %.2fs", nOps, len(t.tr.spans), time.Since(start).Seconds())
	if r.cfg.TraceDir == "" {
		return nil
	}
	return t.tr.write(r.cfg.TraceDir, r.w.Name, r.cfg.Seed)
}

// tracedOp runs one operation four ways — (A) through HTTP, a cache miss; (B)
// through the engine untraced, as the server calls it; (C) re-composed and
// traced; (D) through HTTP again, a cache hit — and then replays the layers C
// only reaches through SearchPlanned.
func (r *runner) tracedOp(ctx context.Context, t *tracedRun, op int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	idx := make([]int, t.width)
	for i := range idx {
		idx[i] = op*t.width + i
	}
	texts := t.texts[idx[0] : idx[0]+t.width]
	body := queryBody(t.quoted[idx[0]], r.w.Options)
	if t.width > 1 {
		body = batchBody(t.quoted, idx, r.w.Options)
	}
	r.check.attempted++

	// A.
	t0 := time.Now()
	reply, status, err := r.st.post(ctx, t.path, bytes.NewReader(body))
	httpRTT := time.Since(t0)
	if err != nil || status != http.StatusOK {
		r.check.fail("traced op %d: POST %s: status %d: %v", op, t.path, status, err)
		return nil
	}
	answers, err := answersOf(sample{body: reply, texts: idx}, op, t.texts, t.width > 1)
	if err != nil {
		r.check.fail("traced op %d: %v", op, err)
		return nil
	}

	// B and C alternate which goes first, so neither always runs on the
	// caches the other warmed.
	plans := make([]core.Plan, t.width)
	var direct time.Duration
	runDirect := func() error {
		t0 := time.Now()
		for i, text := range texts {
			if plans[i], err = r.st.eng.PlanQueryCtx(ctx, text, t.opts); err != nil {
				return err
			}
		}
		if t.width == 1 {
			_, err = r.st.eng.QueryPlanned(ctx, texts[0], plans[0], 0)
		} else {
			_, err = r.st.eng.QueryBatchPlanned(ctx, texts, plans, 0, 0)
		}
		direct = time.Since(t0)
		return err
	}
	if op%2 == 0 {
		if err := runDirect(); err != nil {
			return err
		}
	}
	rc, err := r.recompose(ctx, t.tr, op, texts, t.opts)
	if err != nil {
		return err
	}
	if op%2 == 1 {
		if err := runDirect(); err != nil {
			return err
		}
	}
	// The re-composed answer must be the HTTP answer.
	for i, res := range rc.results {
		if !bytes.Equal(objectsJSON(res), answers[i].reply.Objects) {
			r.check.fail("traced op %d: re-composed answer to %q differs from the HTTP answer", op, texts[i])
		}
		t.candidates += float64(res.CandidateFrames)
	}
	t.reranked += float64(rc.reranked)
	t.queries += float64(t.width)

	// D.
	t0 = time.Now()
	reply, status, err = r.st.post(ctx, t.path, bytes.NewReader(body))
	if cachedRTT := time.Since(t0); err == nil && status == http.StatusOK && bytes.Contains(reply, cachedTrue) {
		t.cachedRTT = append(t.cachedRTT, us(cachedRTT))
	}
	// A pool text the window happened to cache makes A a hit too; such an
	// operation says nothing about the miss path.
	if !answers[0].reply.Cached {
		t.http = append(t.http, us(httpRTT))
		t.direct = append(t.direct, us(direct))
		t.traced = append(t.traced, us(t.tr.spans[rc.root].dur()))
	}

	// Replays.
	qs := make([]mat.Vec, t.width)
	var parseUs, encodeUs float64
	for i, text := range texts {
		var parsed query.Parsed
		parseUs += us(t.tr.replay(op, "query.parse", func() { parsed = query.Parse(text) }))
		encodeUs += us(t.tr.replay(op, "embed.text_encode", func() { qs[i] = t.kit.space.Project(t.kit.text.FastVec(parsed)) }))
	}
	t.parse = append(t.parse, parseUs/float64(t.width))
	t.encode = append(t.encode, encodeUs/float64(t.width))
	// The join is what is left of a leg's stage 1 once parse, encode and the
	// vector search (one sweep for all of a batch's queries) are taken out.
	for leg := 0; leg < shards; leg++ {
		sys, plan := r.st.system(leg), plans[0].Leg(leg)
		search := t.tr.replay(op, "vectordb.search", func() {
			_, err = searchVectors(sys, qs[0], plan.ShardK, annParams(plan))
		})
		t.search = append(t.search, us(search))
		if t.width > 1 && err == nil {
			search = t.tr.replay(op, "vectordb.search_batch", func() {
				err = searchVectorsBatch(sys, qs, plan.ShardK, annParams(plan))
			})
		}
		if err != nil {
			return err
		}
		t.join = append(t.join, (us(rc.stage1[leg]-search)-parseUs-encodeUs)/float64(t.width))
	}
	return nil
}

// deriveFromSpans computes the layer metrics that come from the traced
// operations' span times.
func (r *runner) deriveFromSpans(st *tracedRun) {
	tr := st.tr
	self := selfTimes(tr.spans)
	type opAgg struct {
		root           Span
		rootSelf       time.Duration
		stage1, stage2 []Span
		plan, merge    time.Duration
	}
	ops := make(map[int]*opAgg)
	for i, s := range tr.spans {
		if s.Replay {
			continue
		}
		a := ops[s.Op]
		if a == nil {
			a = &opAgg{}
			ops[s.Op] = a
		}
		switch s.Name {
		case "op":
			a.root, a.rootSelf = s, self[i]
		case "core.plan":
			a.plan += self[i]
		case "core.stage1":
			a.stage1 = append(a.stage1, s)
		case "core.stage2":
			a.stage2 = append(a.stage2, s)
		case "core.merge", "core.select", "core.rank":
			a.merge += self[i]
		}
	}
	var plan, s1, s2, merge, skew, unattributed, scatter []float64
	for _, a := range ops {
		w1, w2 := covered(a.stage1, a.root.StartUs, a.root.EndUs), covered(a.stage2, a.root.StartUs, a.root.EndUs)
		plan = append(plan, us(a.plan)/float64(st.width))
		s1 = append(s1, ms(w1))
		s2 = append(s2, ms(w2))
		merge = append(merge, us(a.merge))
		unattributed = append(unattributed, 100*float64(a.rootSelf)/float64(a.root.dur()))
		var maxLeg, sumLeg float64
		for _, s := range a.stage1 {
			maxLeg, sumLeg = max(maxLeg, us(s.dur())), sumLeg+us(s.dur())
		}
		if sumLeg > 0 {
			skew = append(skew, maxLeg*float64(len(a.stage1))/sumLeg)
		}
		scatter = append(scatter, us(w1+a.merge+w2))
	}
	r.values["core.plan_us"] = median(plan)
	r.values["core.stage1_ms"] = median(s1)
	r.values["core.stage2_ms"] = median(s2)
	r.values["core.merge_us"] = median(merge)
	r.values["shard.leg_skew"] = median(skew)
	r.values["loadgen.trace_unattributed_pct"] = median(unattributed)
	r.values["shard.scatter_overhead_us"] = median(st.direct) - median(scatter)
	r.values["core.candidate_frames"] = st.candidates / max(st.queries, 1)
	r.values["core.rerank_frames"] = st.reranked / max(st.queries, 1)
	r.values["query.parse_us"] = median(st.parse)
	r.values["embed.text_encode_us"] = median(st.encode)
	r.values["vectordb.search_us"] = median(st.search)
	r.values["relational.join_us"] = median(st.join)
	r.values["server.http_overhead_us"] = median(st.http) - median(st.direct)
	r.values["server.cached_p50_us"] = median(st.cachedRTT)
	r.values["loadgen.trace_overhead_pct"] = 100 * (median(st.traced) - median(st.direct)) / median(st.direct)
	r.logf("traced op p50 %.3fms (engine untraced %.3fms, HTTP %.3fms); stage1 %.3fms, stage2 %.3fms, unattributed %.1f%%",
		median(st.traced)/1000, median(st.direct)/1000, median(st.http)/1000, median(s1), median(s2), median(unattributed))
}

// probeLayers times the layers no query operation reaches: the kernels, the
// ingest pipeline's stages and the stores' insert paths.
func (r *runner) probeLayers(ctx context.Context, kit *layerKit, texts []string, opts core.QueryOptions) error {
	cfg := kit.cfg
	rng := rand.New(rand.NewPCG(mix(r.cfg.Seed, streamSample, 1000), 7))

	// mat: one fixed-size block on the active kernel tier.
	const rows = 65536
	block := make([]float32, rows*cfg.ProjDim)
	for i := range block {
		block[i] = rng.Float32() - 0.5
	}
	q := mat.Vec(block[:cfg.ProjDim])
	dst := make([]float32, rows)
	var sweeps []float64
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		mat.ScoreRows(dst, q, block, cfg.ProjDim)
		sweeps = append(sweeps, time.Since(t0).Seconds())
	}
	r.values["mat.score_rows_mvec_s"] = rows / median(sweeps) / 1e6

	// keyframe + vit: the ingest pipeline's first two stages, on corpus footage.
	var selectUs, encodeUs, tokens []float64
	var seen, kept int
	var keyframes []*video.Frame
	for i := range r.corpus.Data.Videos {
		v := &r.corpus.Data.Videos[i]
		t0 := time.Now()
		keys := cfg.Keyframe.Select(v)
		selectUs = append(selectUs, us(time.Since(t0))/float64(len(v.Frames)))
		seen, kept = seen+len(v.Frames), kept+len(keys)
		for _, k := range keys {
			if len(keyframes) < r.size.probeFrames {
				keyframes = append(keyframes, &v.Frames[k])
			}
		}
	}
	for _, f := range keyframes {
		t0 := time.Now()
		toks := vit.EncodeFrame(kit.vision, f)
		encodeUs = append(encodeUs, us(time.Since(t0)))
		tokens = append(tokens, float64(len(toks)))
	}
	r.values["keyframe.select_us_per_frame"] = median(selectUs)
	r.values["keyframe.keep_ratio"] = float64(kept) / float64(seen)
	r.values["vit.encode_frame_us"] = median(encodeUs)
	r.values["vit.tokens_per_keyframe"] = mean(tokens)

	// xmodal: stage 2's unit of work, on keyframes the systems retained.
	toks := kit.text.Tokens(query.Parse(r.corpus.Table2[0].Text))
	var groundUs []float64
	for _, f := range keyframes {
		kf, ok := r.st.system(f.VideoID%shards).Keyframe(f.VideoID, f.Index)
		if !ok {
			continue
		}
		t0 := time.Now()
		kit.model.GroundFrame(kf, toks)
		groundUs = append(groundUs, us(time.Since(t0)))
	}
	r.values["xmodal.ground_frame_us"] = median(groundUs)

	// core: whole-clip ingest on a scratch system of the workload's kind.
	scratch, err := core.New(r.st.cfg)
	if err != nil {
		return err
	}
	clips, err := genClips(mix(r.cfg.Seed, streamFeed, 2), liveClipBase, r.size.scratchClips)
	if err != nil {
		return err
	}
	var clipMs []float64
	for i := range clips {
		t0 := time.Now()
		if err := scratch.Ingest(&clips[i]); err != nil {
			return err
		}
		clipMs = append(clipMs, ms(time.Since(t0)))
	}
	r.values["core.ingest_ms_per_clip"] = median(clipMs)

	// vectordb: raw insert cost, and the batched search.
	const inserts = 4096
	vecs := make([]mat.Vec, inserts)
	for i := range vecs {
		vecs[i] = mat.UnitGaussianVec(cfg.ProjDim, rng.Uint64())
	}
	schema := vectordb.Schema{Dim: cfg.ProjDim, Normalize: true}
	var insert func(int64, mat.Vec) error
	if cfg.Streaming {
		seg, err := vectordb.NewSegmented("scratch", schema, cfg.Index, cfg.IndexOptions, cfg.SegmentSize)
		if err != nil {
			return err
		}
		// Seals queue background builds; wait them out before leaving
		// so the probe stops every goroutine it started.
		defer func() { _ = seg.WaitMaintenance() }()
		insert = seg.Insert
	} else {
		col, err := vectordb.New().CreateCollection("scratch", schema)
		if err != nil {
			return err
		}
		insert = col.Insert
	}
	t0 := time.Now()
	for i, v := range vecs {
		if err := insert(int64(i+1), v); err != nil {
			return err
		}
	}
	r.values["vectordb.insert_us"] = us(time.Since(t0)) / inserts

	sys := r.st.system(0)
	plan, err := r.st.eng.PlanQueryCtx(ctx, texts[0], opts)
	if err != nil {
		return err
	}
	leg := plan.Leg(0)
	qs := make([]mat.Vec, batchSize)
	for i := range qs {
		qs[i] = kit.space.Project(kit.text.FastVec(query.Parse(texts[i])))
	}
	var batchUs []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if err := searchVectorsBatch(sys, qs, leg.ShardK, annParams(leg)); err != nil {
			return err
		}
		batchUs = append(batchUs, us(time.Since(t0))/batchSize)
	}
	r.values["vectordb.search_batch_us_per_query"] = median(batchUs)
	return nil
}

// probeRPC measures what the RPC boundary adds, on every workload: a remote
// worker is stood up around shard 0's own replica group (on top of the
// workload's own workers, if it has any) and each stage is called through it
// and directly, on the same input.
func (r *runner) probeRPC(ctx context.Context, texts []string) error {
	wk, err := startWorker(r.st.locals[0], nil)
	if err != nil {
		return err
	}
	defer wk.stop()
	client := remote.NewClient(wk.ln.Addr().String(), remote.ClientOptions{})
	defer client.Close()
	sys := r.st.system(0)
	// The default plan, so that stage 2 has frames to ground whatever the
	// workload's own options are.
	plan := r.st.cfg.Resolved().FixedPlan(core.QueryOptions{})
	var fast, ground []float64
	for i := 0; i < r.size.rpcCalls && i < len(texts); i++ {
		text := texts[i]
		t0 := time.Now()
		hits, err := client.FastSearch(ctx, text, plan)
		viaRPC := time.Since(t0)
		if err != nil {
			return fmt.Errorf("rpc probe: %w", err)
		}
		t0 = time.Now()
		if _, err := sys.SearchPlanned(ctx, text, plan); err != nil {
			return err
		}
		fast = append(fast, us(viaRPC-time.Since(t0)))

		refs := core.SelectForRerank(core.CandidateFrames(hits), plan.RerankFrames)
		if len(refs) == 0 {
			continue
		}
		t0 = time.Now()
		if _, err := client.GroundCandidates(ctx, text, refs, 0); err != nil {
			return fmt.Errorf("rpc probe: %w", err)
		}
		viaRPC = time.Since(t0)
		t0 = time.Now()
		sys.GroundCandidates(ctx, text, refs, 0)
		ground = append(ground, us(viaRPC-time.Since(t0)))
	}
	r.values["remote.rpc_overhead_us"] = median(fast)
	r.values["remote.ground_rpc_overhead_us"] = median(ground)
	return nil
}

// ingestProbe posts probe clips to /ingest one after another. Where the
// workload has no ingest traffic of its own it supplies ingest_p50_ms (and
// the demoted p95); on a traced run the twins price the HTTP tier's share.
func (r *runner) ingestProbe(ctx context.Context) error {
	live := r.w.Traffic == trafficLive
	if live && !r.cfg.Trace {
		return nil
	}
	clips, err := genClips(mix(r.cfg.Seed, streamFeed, 1), probeClipBase, r.size.probeClips)
	if err != nil {
		return err
	}
	var httpMs, directMs []float64
	failed := 0
	for i := range clips {
		body, err := json.Marshal(&clips[i])
		if err != nil {
			return err
		}
		// On a traced run a twin of the clip (the same frames under an ID of
		// the same parity, so the same shard) goes to Engine.Ingest
		// directly, alternately before and after the HTTP post.
		twin := func() error {
			v := renumber(video.Video{Name: clips[i].Name, FPS: clips[i].FPS,
				Frames: append([]video.Frame(nil), clips[i].Frames...)}, twinClipBase+i)
			t0 := time.Now()
			err := r.st.eng.Ingest(&v)
			directMs = append(directMs, ms(time.Since(t0)))
			return err
		}
		if r.cfg.Trace && i%2 == 0 {
			if err := twin(); err != nil {
				return fmt.Errorf("ingest probe twin: %w", err)
			}
		}
		r.check.attempted++
		t0 := time.Now()
		_, status, err := r.st.post(ctx, "/ingest", bytes.NewReader(body))
		d := time.Since(t0)
		if err != nil || status != http.StatusOK {
			failed++
			r.check.fail("ingest probe: clip %d: status %d: %v", clips[i].ID, status, err)
		} else {
			httpMs = append(httpMs, ms(d))
		}
		if r.cfg.Trace && i%2 == 1 {
			if err := twin(); err != nil {
				return fmt.Errorf("ingest probe twin: %w", err)
			}
		}
	}
	if err := r.st.waitMaintenance(); err != nil {
		return err
	}
	l := newLatencies(httpMs, failed)
	if !live {
		r.values["ingest_p50_ms"] = l.percentile(0.50)
		r.values["server.ingest_p95_ms"] = l.percentile(0.95)
	}
	if r.cfg.Trace {
		r.values["server.ingest_http_overhead_us"] = 1000 * (median(httpMs) - median(directMs))
	}
	return nil
}
