package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// PlanTarget is the deployment surface a plan executes against: something
// that can scatter stage 1 and stage 2. A single System is a one-leg
// target; shard.Engine is an N-leg target whose stage-2 refs route to the
// shard owning each keyframe; RPC workers sit behind either leg
// transparently. ExecutePlanBatch is the only composition of the stage
// functions — core, engine and remote all answer through it, so equal
// plans produce equal bytes on every deployment shape.
//
// The context carries the tracing recorder (see internal/obs) — targets
// thread it into every leg so per-shard and per-replica spans land in the
// query's trace. It carries no cancellation semantics here: plans run to
// completion for determinism.
type PlanTarget interface {
	// ScatterSearchBatch runs stage 1 for a batch of (text, plan) pairs —
	// a lone query is a batch of one — in one call per leg, so the target
	// can amortize one memory sweep across the batch (queries with equal
	// search shapes share a blocked scan) and a remote leg costs one round
	// trip however many queries ride it. out[i][leg] is query i's canonical
	// (score desc, patch ID asc) hit list from that leg.
	ScatterSearchBatch(ctx context.Context, texts []string, plans []Plan) ([][][]ResultObject, error)
	// ScatterGround runs stage 2 over the candidate frames; groundings
	// align with refs.
	ScatterGround(ctx context.Context, text string, refs []FrameRef, workers int) ([]Grounding, error)
}

// ExecutePlanBatch runs Algorithm 2 under one explicit plan per query — the
// ONE execution: scatter fast search, merge each query to its global
// top-FastK, collapse to candidate frames, then either return deduplicated
// hits (SkipRerank) or select the rerank budget, ground each candidate and
// rank. Stage 1 for the WHOLE batch is one scatter call: queries with
// identical search shapes share a single memory sweep. Only stage 2 fans
// out per query, across at most clients goroutines (zero inherits
// cfg.Workers; never more than the batch has queries, so a batch of one
// keeps its full-width rerank); workers bounds each query's own grounding
// fan-out. Plans are normalized against cfg; results align with texts, are
// identical at every width and every tracing setting (spans observe, never
// steer) and equal what each query answers alone; the first failing query
// (lowest index) reports its error once in-flight work drains.
func ExecutePlanBatch(ctx context.Context, t PlanTarget, cfg Config, texts []string, plans []Plan, workers, clients int) ([]*Result, error) {
	if len(plans) != len(texts) {
		return nil, fmt.Errorf("core: batch of %d texts given %d plans", len(texts), len(plans))
	}
	if clients == 0 {
		clients = cfg.Workers
	}
	clients = min(ResolveWorkers(clients), len(texts))
	// Batch-level concurrency already saturates the cores, so unless the
	// caller explicitly widened the per-query rerank, run each query's
	// stage 2 serially — nested NumCPU-wide pools would oversubscribe the
	// CPU with no throughput to show for it. Results are identical at every
	// width.
	if workers == 0 && clients > 1 {
		workers = 1
	}
	plans = append([]Plan(nil), plans...) // the caller's slice is never written
	for i := range plans {
		plans[i] = cfg.NormalizePlan(plans[i])
	}
	results := make([]*Result, len(texts))
	errs := make([]error, len(texts))

	//lovo:nondeterministic-ok Result.FastSearch is reported stage latency; hit selection and order never read it
	start := time.Now()
	sctx, ssp := obs.Start(ctx, "stage1")
	allLists, err := t.ScatterSearchBatch(sctx, texts, plans)
	if err != nil {
		ssp.End()
		return nil, err
	}
	_, msp := obs.Start(sctx, "merge")
	merged := make([][]ResultObject, len(texts))
	refs := make([][]FrameRef, len(texts))
	hits, frames := 0, 0
	for i := range texts {
		merged[i] = MergeHits(allLists[i], plans[i].FastK)
		refs[i] = CandidateFrames(merged[i])
		hits, frames = hits+len(merged[i]), frames+len(refs[i])
	}
	if msp.On() {
		msp.Detail(fmt.Sprintf("queries=%d hits=%d frames=%d", len(texts), hits, frames))
	}
	msp.End()
	ssp.End()
	//lovo:nondeterministic-ok Result.FastSearch is reported stage latency; hit selection and order never read it
	fastElapsed := time.Since(start)

	// Stage 2 is per-query work (transformer forward passes over each
	// query's own candidate frames), so it fans out across the batch.
	ParallelFor(len(texts), clients, func(i int) {
		res := &Result{CandidateFrames: len(refs[i]), FastSearch: fastElapsed}
		if plans[i].SkipRerank {
			res.Objects = DedupHits(merged[i], plans[i].FastK)
			results[i] = res
			return
		}
		//lovo:nondeterministic-ok Result.Rerank is reported stage latency; grounding ranks never read it
		rstart := time.Now()
		rctx, rsp := obs.Start(ctx, "rerank")
		sel := SelectForRerank(refs[i], plans[i].RerankFrames)
		if rsp.On() {
			rsp.Detail(fmt.Sprintf("frames=%d", len(sel)))
		}
		groundings, err := t.ScatterGround(rctx, texts[i], sel, workers)
		if err != nil {
			rsp.End()
			errs[i] = err
			return
		}
		res.Objects = RankGroundings(groundings, plans[i].TopN)
		rsp.End()
		//lovo:nondeterministic-ok Result.Rerank is reported stage latency; grounding ranks never read it
		res.Rerank = time.Since(rstart)
		results[i] = res
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: query %d (%q): %w", i, texts[i], err)
		}
	}
	return results, nil
}

// StageRecall measures a resolved plan's stage-1 recall on a target:
// |plan hits ∩ exact hits| / |exact hits|, each side the target's scatter
// merged to the global top-FastK. It is the ONE recall measurement — the
// planner's validation probe (on a System, or on one shard leg of an
// engine), the conformance tests and the bench harness's "measured recall"
// column all call it. Both sides travel as one two-query scatter, so a
// remote leg pays one round trip for the pair.
func StageRecall(ctx context.Context, t PlanTarget, text string, plan Plan) (float64, error) {
	xp := plan
	xp.Exact, xp.ShardKs, xp.ShardK = true, nil, plan.FastK
	lists, err := t.ScatterSearchBatch(ctx, []string{text, text}, []Plan{xp, plan})
	if err != nil {
		return 0, err
	}
	patchID := func(o ResultObject) int64 { return o.PatchID }
	exact := idSet(MergeHits(lists[0], plan.FastK), patchID)
	return recallOf(exact, MergeHits(lists[1], plan.FastK), patchID), nil
}

// idSet collects the IDs of a hit list.
func idSet[T any](hits []T, id func(T) int64) map[int64]bool {
	ids := make(map[int64]bool, len(hits))
	for _, h := range hits {
		ids[id(h)] = true
	}
	return ids
}

// recallOf is |hits ∩ truth| / |truth| — the one overlap computation under
// StageRecall and ladder calibration. An empty truth set is recall 1.
func recallOf[T any](truth map[int64]bool, hits []T, id func(T) int64) float64 {
	if len(truth) == 0 {
		return 1
	}
	overlap := 0
	for _, h := range hits {
		if truth[id(h)] {
			overlap++
		}
	}
	return float64(overlap) / float64(len(truth))
}

// Target exposes the system as the one-leg PlanTarget (StageRecall
// measurements; QueryBatchPlanned is the execution path).
func (s *System) Target() PlanTarget { return systemTarget{s} }

// systemTarget adapts a System to the one-leg PlanTarget.
type systemTarget struct{ s *System }

func (t systemTarget) ScatterSearchBatch(ctx context.Context, texts []string, plans []Plan) ([][][]ResultObject, error) {
	fhs, err := t.s.SearchPlannedBatch(ctx, texts, plans)
	if err != nil {
		return nil, err
	}
	out := make([][][]ResultObject, len(fhs))
	for i, fh := range fhs {
		out[i] = [][]ResultObject{fh.Objects}
	}
	return out, nil
}

func (t systemTarget) ScatterGround(ctx context.Context, text string, refs []FrameRef, workers int) ([]Grounding, error) {
	return t.s.GroundCandidates(ctx, text, refs, workers), nil
}
