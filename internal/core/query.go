package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/ann"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/video"
)

// QueryOptions tune one query; zero values inherit the system Config.
type QueryOptions struct {
	// FastK overrides the fast-search candidate count.
	FastK int
	// TopN overrides the number of reranked frames returned.
	TopN int
	// DisableRerank skips stage 2 ("w/o Rerank" ablation): the deduplicated
	// top-FastK fast-search hits are returned, and TopN does not apply.
	DisableRerank bool
	// Exhaustive disables ANNS pruning ("w/o ANNS" ablation).
	Exhaustive bool
	// RerankFrames overrides the stage-2 frame budget.
	RerankFrames int
	// Workers overrides the stage-2 rerank fan-out width for this query
	// (zero inherits Config.Workers, which defaults to runtime.NumCPU();
	// 1 forces the serial rerank). Output is identical at every setting.
	Workers int
	// Plan, when non-nil, pins the execution plan explicitly: the query
	// runs these exact knobs (zero fields resolved against the Config by
	// NormalizePlan) and ignores the other option fields.
	// A pinned plan answers byte-identically across local, sharded and
	// remote deployments.
	Plan *Plan
}

// ResultObject is one retrieved object.
type ResultObject struct {
	// VideoID and FrameIdx locate the keyframe.
	VideoID  int
	FrameIdx int
	// Box is the object's bounding box.
	Box video.Box
	// Score is the ranking score (cross-modality score after rerank,
	// fast-search similarity otherwise).
	Score float32
	// PatchID is the vector-database key that produced the candidate
	// (zero for rerank-promoted objects that had no direct hit).
	PatchID int64
}

// Result is a ranked answer with stage timings.
type Result struct {
	// Objects is the ranked object list (frames with bounding boxes).
	Objects []ResultObject
	// FastSearch is the stage-1 latency (encode + ANNS + metadata join).
	FastSearch time.Duration
	// Rerank is the stage-2 latency.
	Rerank time.Duration
	// CandidateFrames is the number of distinct frames sent to rerank.
	CandidateFrames int
}

// Total returns the user-perceived search latency.
func (r *Result) Total() time.Duration { return r.FastSearch + r.Rerank }

// ErrNoRecognisedTerms marks a query whose text contains no vocabulary
// term at all — the caller's input is unanswerable, not a system failure.
// Serving tiers test with errors.Is to map it to a client error.
var ErrNoRecognisedTerms = errors.New("query contains no recognised terms")

// FrameRef identifies one candidate keyframe for the stage-2 rerank plus
// the best fast-search hit that nominated it. It is the unit of work a
// scatter-gather engine routes back to the shard owning the keyframe.
type FrameRef struct {
	VideoID  int
	FrameIdx int
	// PatchID is the best (first, in canonical hit order) fast-search hit
	// of this frame; rerank-promoted objects inherit it.
	PatchID int64
}

// Grounding is the stage-2 output for one candidate frame: the objects the
// cross-modality model grounded (plateau-limited) and the frame's best
// score, which drives the final frame ranking.
type Grounding struct {
	Ref     FrameRef
	Objects []ResultObject
	Best    float32
	// Grounds reports whether the frame produced any grounding at all;
	// frames that ground nothing never enter the final ranking.
	Grounds bool
}

// FastHits is the stage-1 output: the joined fast-search hits in canonical
// order — descending score, ascending patch ID — which every index kind
// produces and which the scatter-gather merge preserves.
type FastHits struct {
	Objects []ResultObject
	Elapsed time.Duration
}

// SearchPlanned runs stage 1 for one query: SearchPlannedBatch with a
// batch of one.
func (s *System) SearchPlanned(ctx context.Context, text string, plan Plan) (*FastHits, error) {
	fhs, err := s.SearchPlannedBatch(ctx, []string{text}, []Plan{plan})
	if err != nil {
		return nil, err
	}
	return fhs[0], nil
}

// annParams derives the index search parameters a plan's stage-1 leg runs
// with — the single place the plan-to-Params mapping lives.
func (p Plan) annParams() ann.Params {
	return ann.Params{
		NProbe:     p.NProbe,
		Ef:         p.Ef,
		Exhaustive: p.Exact,
	}
}

// SearchPlannedBatch runs stage 1 of Algorithm 2 for many (text, plan)
// pairs — the stage-1 leg every deployment shape executes: the single
// system directly, each shard of an engine via Plan.Leg, and RPC workers
// behind the wire's stage-1 op. Each query is encoded, fast-searched under
// its plan's own depth (ShardK) and index effort (Exact/NProbe/Ef) —
// queries whose plans resolve to identical search parameters share one
// batched vector-store sweep — and joined against the patch table,
// coming back in canonical (score desc, patch ID asc) order. Results align
// with texts and equal what each query answers alone; a query whose text
// fails to encode fails the whole batch. A traced context records encode /
// ANN / metadata-join sub-spans. Safe to call concurrently with Ingest.
func (s *System) SearchPlannedBatch(ctx context.Context, texts []string, plans []Plan) ([]*FastHits, error) {
	if len(plans) != len(texts) {
		return nil, fmt.Errorf("core: stage-1 batch of %d texts given %d plans", len(texts), len(plans))
	}
	//lovo:nondeterministic-ok Elapsed is reported latency metadata; hit selection and order never read it
	start := time.Now()
	_, esp := obs.Start(ctx, "encode")
	qs := make([]mat.Vec, len(texts))
	for i, text := range texts {
		q, err := s.enc.Encode(text)
		if err != nil {
			esp.End()
			return nil, fmt.Errorf("core: query %d (%q): %w", i, text, err)
		}
		qs[i] = q
	}
	esp.End()

	// Group queries by their resolved search shape. ann.Params is a
	// comparable struct, so (depth, params) keys a map directly; each
	// group shares one batched sweep.
	type groupKey struct {
		k int
		p ann.Params
	}
	groups := make(map[groupKey][]int)
	for i, p := range plans {
		p = s.cfg.NormalizePlan(p)
		gk := groupKey{k: p.ShardK, p: p.annParams()}
		groups[gk] = append(groups[gk], i)
	}

	_, asp := obs.Start(ctx, "ann")
	allHits := make([][]mat.Scored, len(texts))
	for gk, idxs := range groups {
		gq := make([]mat.Vec, len(idxs))
		for j, i := range idxs {
			gq[j] = qs[i]
		}
		lists, err := s.searchVectorsBatch(gq, gk.k, gk.p)
		if err != nil {
			asp.End()
			return nil, fmt.Errorf("core: fast search: %w", err)
		}
		for j, i := range idxs {
			allHits[i] = lists[j]
		}
	}
	if asp.On() {
		asp.Detail(fmt.Sprintf("queries=%d groups=%d", len(texts), len(groups)))
	}
	asp.End()

	_, jsp := obs.Start(ctx, "join")
	defer jsp.End()
	out := make([]*FastHits, len(texts))
	//lovo:nondeterministic-ok Elapsed is reported latency metadata; hit selection and order never read it
	elapsed := time.Since(start)
	// The shared sweep has no per-query attribution; report the batch
	// stage-1 wall time on every query, which is what the caller actually
	// waited for.
	objects, err := s.patches.join(allHits)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = &FastHits{Objects: objects[i], Elapsed: elapsed}
	}
	return out, nil
}

// MergeHits folds many canonical hit lists (e.g. one per shard) into one
// global canonical list truncated to fastK: descending score, with ties
// broken by ascending patch ID. Merging each shard's exact local top-fastK
// this way reproduces the monolithic exact top-fastK bit for bit — any hit
// in the global cut has fewer than fastK hits above it globally, hence
// fewer than fastK above it in its own shard. A k-way merge stops at the
// cut; a non-canonical list merges from a sorted copy, never in place.
func MergeHits(lists [][]ResultObject, fastK int) []ResultObject {
	canonical := func(a, b ResultObject) int {
		return mat.Canonical(mat.Scored{ID: a.PatchID, Score: a.Score}, mat.Scored{ID: b.PatchID, Score: b.Score})
	}
	var small [4][]ResultObject // one list per shard: keep the heads on the stack
	runs, total := append(small[:0], lists...), 0
	for i, l := range lists {
		if !slices.IsSortedFunc(l, canonical) {
			l = slices.Clone(l)
			slices.SortFunc(l, canonical)
		}
		runs[i], total = l, total+len(l)
	}
	if fastK > 0 {
		total = min(total, fastK)
	}
	merged := make([]ResultObject, 0, total)
	for len(merged) < total {
		best := -1
		for r, l := range runs {
			if len(l) > 0 && (best < 0 || canonical(l[0], runs[best][0]) < 0) {
				best = r
			}
		}
		merged = append(merged, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return merged
}

// CandidateFrames collapses a canonical hit list to its distinct frames in
// first-hit order, so each frame carries its best hit's patch ID.
func CandidateFrames(hits []ResultObject) []FrameRef {
	refs := slices.Grow([]FrameRef(nil), len(hits)) // nil for no hits
	t := newFrameTable(hits)
	for i, h := range hits {
		if t.first(i) == i {
			refs = append(refs, FrameRef{VideoID: h.VideoID, FrameIdx: h.FrameIdx, PatchID: h.PatchID})
		}
	}
	return refs
}

// frameTable finds the first hit of each hit's (video, frame) in a hit
// list without a map: open addressing over slots that hold 1 + the index
// of a frame's first hit (0: empty), at most half of them full.
type frameTable struct {
	hits  []ResultObject
	slots []int32
}

func newFrameTable(hits []ResultObject) frameTable {
	return frameTable{hits, make([]int32, 1<<bits.Len(uint(2*len(hits))))}
}

// first returns the index of the first hit of hits[i]'s frame — i itself
// when the frame is new.
func (t frameTable) first(i int) int {
	h, mask := t.hits[i], len(t.slots)-1
	for s := int((uint64(h.VideoID)<<32^uint64(h.FrameIdx))*0x9e3779b97f4a7c15>>32) & mask; ; s = (s + 1) & mask {
		if t.slots[s] == 0 {
			t.slots[s] = int32(i + 1)
			return i
		}
		if f := int(t.slots[s] - 1); t.hits[f].VideoID == h.VideoID && t.hits[f].FrameIdx == h.FrameIdx {
			return f
		}
	}
}

// SelectForRerank bounds the candidate frames to the stage-2 budget so the
// rerank cost stays independent of dataset size (Section VII-D). The budget
// is spent on temporally diverse moments: adjacent keyframes almost surely
// show the same objects, so a candidate within a few frames of an
// already-selected one is deferred until the distinct moments are
// exhausted.
func SelectForRerank(refs []FrameRef, budget int) []FrameRef {
	if budget <= 0 || len(refs) <= budget {
		return refs
	}
	const spacing = 4
	selected := make([]FrameRef, 0, budget)
	var deferred []FrameRef
	for _, cand := range refs {
		close := false
		for _, sel := range selected {
			if sel.VideoID == cand.VideoID && abs(sel.FrameIdx-cand.FrameIdx) <= spacing {
				close = true
				break
			}
		}
		if close {
			deferred = append(deferred, cand)
			continue
		}
		selected = append(selected, cand)
		if len(selected) == budget {
			break
		}
	}
	for _, cand := range deferred {
		if len(selected) == budget {
			break
		}
		selected = append(selected, cand)
	}
	return selected
}

// GroundCandidates runs stage 2 over the given candidate frames: each
// frame's retained keyframe is grounded against the query by the
// cross-modality transformer. Groundings align with refs. Frames this
// system does not own (no retained keyframe) come back with Grounds=false,
// so a scatter-gather engine may safely route only the refs a shard owns.
//
// The owned frames split into at most workers contiguous chunks, and each
// chunk is one stacked forward pass (xmodal.Model.GroundFrames) on its own
// goroutine: workers = 1 — what the serving tier asks for whenever other
// requests are in flight — grounds the whole leg in one pass, while a lone
// query still spreads over every core. A frame's groundings do not depend
// on which chunk it lands in, so the result is byte-identical at every
// width. A traced context records one rerank.stack span per chunk with
// its frame and region-token counts — the stacked passes are the dominant
// cost, so their spans are where a slow stage 2 localises.
func (s *System) GroundCandidates(ctx context.Context, text string, refs []FrameRef, workers int) []Grounding {
	parsed := query.Parse(text)
	toks := s.text.Tokens(parsed)
	if workers == 0 {
		workers = s.cfg.Workers
	}
	rsp := obs.FromContext(ctx)
	out := make([]Grounding, len(refs))
	owned := make([]int, 0, len(refs))
	frames := make([]*video.Frame, 0, len(refs))
	for i, ref := range refs {
		out[i].Ref = ref
		if f, ok := s.Keyframe(ref.VideoID, ref.FrameIdx); ok {
			owned = append(owned, i)
			frames = append(frames, f)
		}
	}
	chunks := min(ResolveWorkers(workers), len(frames))
	ParallelFor(chunks, chunks, func(c int) {
		lo, hi := c*len(frames)/chunks, (c+1)*len(frames)/chunks
		var ssp obs.Span
		if rsp.On() {
			ssp = rsp.Child("rerank.stack")
			defer ssp.End()
		}
		grounded, tokens := s.model.GroundFrames(frames[lo:hi], toks)
		if ssp.On() {
			ssp.Detail(fmt.Sprintf("frames=%d tokens=%d", hi-lo, tokens))
		}
		for j, groundings := range grounded {
			o := &out[owned[lo+j]]
			for gi, g := range groundings {
				// Beyond the best grounding, a frame contributes further
				// objects only while they form a plateau of near-equal
				// scores (several pedestrians all walking, both cars of a
				// side-by-side pair); a clear drop means the remaining
				// objects don't match and would only inject false
				// positives.
				if gi >= 4 || (gi > 0 && g.Score < groundings[gi-1].Score-0.02) {
					break
				}
				o.Objects = append(o.Objects, ResultObject{
					VideoID:  o.Ref.VideoID,
					FrameIdx: o.Ref.FrameIdx,
					Box:      g.Box,
					Score:    g.Score,
					PatchID:  o.Ref.PatchID,
				})
			}
			if len(groundings) > 0 {
				o.Best = groundings[0].Score
				o.Grounds = true
			}
		}
	})
	return out
}

// RankGroundings produces the final answer from stage-2 groundings: frames
// ranked by their best grounding, the top-n frames kept, objects within
// ranked by score with deterministic (video, frame, patch ID) tie-breaks —
// Algorithm 2 returns top-n frames with boxes.
func RankGroundings(groundings []Grounding, topN int) []ResultObject {
	type fs struct {
		key   frameKey
		score float32
	}
	frameBest := make(map[frameKey]float32, len(groundings))
	for _, g := range groundings {
		if g.Grounds {
			frameBest[frameKey{g.Ref.VideoID, g.Ref.FrameIdx}] = g.Best
		}
	}
	ranked := make([]fs, 0, len(frameBest))
	for k, v := range frameBest {
		ranked = append(ranked, fs{k, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		if ranked[i].key.video != ranked[j].key.video {
			return ranked[i].key.video < ranked[j].key.video
		}
		return ranked[i].key.frame < ranked[j].key.frame
	})
	keep := make(map[frameKey]bool)
	for i := 0; i < len(ranked) && i < topN; i++ {
		keep[ranked[i].key] = true
	}
	var kept []ResultObject
	for _, g := range groundings {
		for _, o := range g.Objects {
			if keep[frameKey{o.VideoID, o.FrameIdx}] {
				kept = append(kept, o)
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Score != kept[j].Score {
			return kept[i].Score > kept[j].Score
		}
		if kept[i].VideoID != kept[j].VideoID {
			return kept[i].VideoID < kept[j].VideoID
		}
		if kept[i].FrameIdx != kept[j].FrameIdx {
			return kept[i].FrameIdx < kept[j].FrameIdx
		}
		return kept[i].PatchID < kept[j].PatchID
	})
	return kept
}

// Querier is the whole-query surface of a deployment: resolve a plan under
// a context, execute a batch of plans — a lone query is a batch of one.
// core.System and shard.Engine both are one (and it is all the serving tier
// and the RPC workers call); Query and QueryBatch below are the
// plan-then-execute conveniences over it.
type Querier interface {
	PlanQueryCtx(ctx context.Context, text string, opts QueryOptions) (Plan, error)
	QueryBatchPlanned(ctx context.Context, texts []string, plans []Plan, workers, clients int) ([]*Result, error)
}

// Query executes the two-stage strategy of Algorithm 2 on any deployment
// shape: QueryBatch with a batch of one, which keeps the full-width rerank
// (opts.Workers, zero inheriting Config.Workers). A traced context records
// plan and execution spans; tracing never changes the answer.
func Query(ctx context.Context, q Querier, text string, opts QueryOptions) (*Result, error) {
	res, err := QueryBatch(ctx, q, []string{text}, opts, 0)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// QueryBatch plans every query under a "plan" span (fixed or pinned per the
// options), then executes the batch through
// QueryBatchPlanned — stage 1 shares one scatter, stage 2 fans out across
// at most clients goroutines (zero inherits Config.Workers). Results align
// with texts and each equals what a lone Query call would return; the first
// failing query (lowest index) fails the batch.
func QueryBatch(ctx context.Context, q Querier, texts []string, opts QueryOptions, clients int) ([]*Result, error) {
	plans := make([]Plan, len(texts))
	for i, text := range texts {
		pctx, psp := obs.Start(ctx, "plan")
		plan, err := q.PlanQueryCtx(pctx, text, opts)
		psp.End()
		if err != nil {
			return nil, fmt.Errorf("core: query %d (%q): %w", i, text, err)
		}
		plans[i] = plan
	}
	return q.QueryBatchPlanned(ctx, texts, plans, opts.Workers, clients)
}

// PlanQueryCtx resolves the plan one query will execute: the pinned plan
// when QueryOptions.Plan is set, and otherwise the fixed default plan. It
// depends on the options and the Config alone, never on the text or the
// corpus, and never fails; the signature is the Querier's.
func (s *System) PlanQueryCtx(_ context.Context, _ string, opts QueryOptions) (Plan, error) {
	if opts.Plan != nil {
		return s.cfg.NormalizePlan(*opts.Plan), nil
	}
	return s.cfg.FixedPlan(opts), nil
}

// QueryBatchPlanned executes one pre-resolved plan per query through the
// shared executor (ExecutePlanBatch) — the same composition of the stage
// functions shard.Engine and the RPC workers run, so equal plans answer
// byte-identically on every deployment shape. Queries whose plans resolve
// to identical search shapes share ONE cache-blocked memory sweep over the
// stored vectors, while stage 2 fans out per query across at most clients
// goroutines. The context carries the tracing recorder; an untraced context
// runs the allocation-free disabled path. Safe to call from many goroutines
// and while ingest continues on another.
func (s *System) QueryBatchPlanned(ctx context.Context, texts []string, plans []Plan, workers, clients int) ([]*Result, error) {
	return ExecutePlanBatch(ctx, systemTarget{s}, s.cfg, texts, plans, workers, clients)
}

// DedupHits removes near-duplicate fast-search hits and truncates to limit:
// multiple patches of one object predict nearly identical boxes, which
// would otherwise flood the un-reranked result list (the "w/o Rerank"
// ablation path).
func DedupHits(objs []ResultObject, limit int) []ResultObject {
	kept, _ := dedupHits(objs, limit)
	return kept
}

// dedupHits is DedupHits plus the number of distinct frames in objs — the
// no-rerank path's candidate-frame count. A hit is a duplicate when a kept
// hit of its own frame — found through last and prev — has IoU > 0.8.
func dedupHits(objs []ResultObject, limit int) ([]ResultObject, int) {
	var out []ResultObject // append-grown: the result cache retains it
	// last[f] is 1 + the index in out of the latest kept hit of the frame
	// first seen at objs[f]; prev[j] the same for the kept hit before out[j].
	last, prev := make([]int32, len(objs)), make([]int32, 0, len(objs))
	t, frames := newFrameTable(objs), 0
	for i, o := range objs {
		f := t.first(i)
		if f == i {
			frames++
		}
		if limit > 0 && len(out) == limit {
			continue
		}
		dup := false
		for j := last[f]; j != 0 && !dup; j = prev[j-1] {
			dup = out[j-1].Box.IoU(o.Box) > 0.8
		}
		if !dup {
			out, prev = append(out, o), append(prev, last[f])
			last[f] = int32(len(out))
		}
	}
	return out, frames
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
