package core

import (
	"fmt"
	"strings"
)

// PlanKind records how a plan was chosen — fixed defaults, caller-pinned,
// or planner-adapted. It is reporting provenance only: two plans with equal
// execution fields produce the same bytes regardless of kind.
type PlanKind string

const (
	// PlanFixed is the default path: the resolved Config knobs, exactly as
	// every query ran before the planner existed.
	PlanFixed PlanKind = "fixed"
	// PlanPinned is a caller-supplied explicit plan (QueryOptions.Plan).
	PlanPinned PlanKind = "pinned"
	// PlanAdaptive is a planner-chosen approximate plan predicted to meet
	// the caller's MinRecall bound.
	PlanAdaptive PlanKind = "adaptive"
	// PlanAdaptiveExact is the planner's escalation: no calibrated setting
	// is predicted to meet the bound (or no calibration data exists yet),
	// so stage 1 runs exhaustively — recall 1 by construction.
	PlanAdaptiveExact PlanKind = "adaptive-exact"
)

// Plan is an explicit, executable description of one query's two-stage
// strategy: how wide stage 1 searches (exact vs approximate, per-shard k,
// index effort knobs) and how wide stage 2 reranks. The shared executor
// (ExecutePlanBatch) runs a plan identically whether the stage legs are
// served in-process, by a scatter-gather engine, or over RPC — equal
// plans yield byte-identical answers on every deployment shape, which is
// what lets a pinned plan be cached, replayed and conformance-tested.
//
// Zero execution fields are resolved against the system Config by
// Config.NormalizePlan before execution or cache keying.
type Plan struct {
	// Exact disables ANN pruning: stage 1 scans the whole collection
	// (recall 1 by construction). NProbe/Ef are ignored when set.
	Exact bool
	// FastK is the global stage-1 candidate pool: the merged hit list is
	// truncated to this many patches before stage 2.
	FastK int
	// ShardK is the per-leg stage-1 depth: how many local hits one shard
	// returns. A single system and a conservative engine use ShardK ==
	// FastK (which reproduces the exact global top-FastK under exact
	// per-shard search); the planner may trim low-yield shards below it.
	ShardK int
	// ShardKs, when non-nil, gives each shard leg its own stage-1 depth
	// (heterogeneous per-shard k, engine-resolved plans only). Leg i runs
	// with ShardK = ShardKs[i]; nil means every leg uses ShardK.
	ShardKs []int
	// NProbe is the per-subspace probe count for IMI/IVF-PQ stage-1 search.
	NProbe int
	// Ef is the HNSW search beam width.
	Ef int
	// RerankFrames is the stage-2 candidate-frame budget.
	RerankFrames int
	// TopN is the number of reranked frames returned.
	TopN int
	// SkipRerank returns the deduplicated top-FastK stage-1 hits directly
	// (the "w/o Rerank" ablation path); TopN does not apply.
	SkipRerank bool
	// Deprecated: ignored; remains only because benchmark/ names it — removed with ROADMAP item 1.
	Int8 bool

	// Kind records how the plan was chosen (reporting only).
	Kind PlanKind
	// PredictedRecall is the planner's calibrated stage-1 recall estimate
	// against the exact top-FastK (0 when not predicted: fixed and pinned
	// plans make no claim; exact plans predict 1).
	PredictedRecall float64
}

// FixedPlan resolves the pre-planner query path for the receiver Config
// (which must be resolved, see Config.Resolved) and the per-query option
// overrides: the exact knobs every query ran with before plans existed.
// The no-bound default resolves here, so it is byte-identical to the old
// fixed path by construction.
func (c Config) FixedPlan(opts QueryOptions) Plan {
	p := Plan{
		Exact:        opts.Exhaustive,
		FastK:        opts.FastK,
		NProbe:       c.NProbe,
		Ef:           c.Ef,
		RerankFrames: opts.RerankFrames,
		TopN:         opts.TopN,
		SkipRerank:   opts.DisableRerank,
		Kind:         PlanFixed,
	}
	if p.FastK == 0 {
		p.FastK = c.FastK
	}
	if p.TopN == 0 {
		p.TopN = c.TopN
	}
	if p.RerankFrames == 0 {
		p.RerankFrames = c.RerankFrames
	}
	p.ShardK = p.FastK
	return p
}

// NormalizePlan fills a (possibly partial) pinned plan's zero fields from
// the resolved Config defaults, so callers may pin only the knobs they care
// about. The normalized plan is what executes — and what the result cache
// keys on.
func (c Config) NormalizePlan(p Plan) Plan {
	if p.FastK <= 0 {
		p.FastK = c.FastK
	}
	if p.ShardK <= 0 {
		p.ShardK = p.FastK
	}
	if p.NProbe <= 0 {
		p.NProbe = c.NProbe
	}
	if p.Ef <= 0 {
		p.Ef = c.Ef
	}
	if p.RerankFrames <= 0 {
		p.RerankFrames = c.RerankFrames
	}
	if p.TopN <= 0 {
		p.TopN = c.TopN
	}
	if p.Kind == "" {
		p.Kind = PlanPinned
	}
	return p
}

// Leg derives the plan one shard leg executes: the same global plan with
// the leg's own stage-1 depth and the engine-only ShardKs slice stripped
// (it never travels the wire).
func (p Plan) Leg(i int) Plan {
	leg := p
	if p.ShardKs != nil && i >= 0 && i < len(p.ShardKs) {
		leg.ShardK = p.ShardKs[i]
	}
	leg.ShardKs = nil
	return leg
}

// Key canonicalises the plan's execution fields for result-cache keying.
// Provenance fields (Kind, PredictedRecall) are excluded: they never change
// the answer bytes, so a pinned plan and an adaptive plan that resolved to
// the same knobs share one cache entry.
func (p Plan) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "x=%t k=%d sk=%d np=%d ef=%d rr=%d n=%d sr=%t",
		p.Exact, p.FastK, p.ShardK, p.NProbe, p.Ef, p.RerankFrames, p.TopN, p.SkipRerank)
	if p.ShardKs != nil {
		sb.WriteString(" sks=")
		for i, k := range p.ShardKs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", k)
		}
	}
	return sb.String()
}

// String renders the plan for logs and /stats.
func (p Plan) String() string {
	kind := p.Kind
	if kind == "" {
		kind = PlanFixed
	}
	if p.Exact {
		return fmt.Sprintf("%s exact k=%d rerank=%d top=%d", kind, p.FastK, p.RerankFrames, p.TopN)
	}
	return fmt.Sprintf("%s k=%d shardk=%d nprobe=%d ef=%d rerank=%d top=%d",
		kind, p.FastK, p.ShardK, p.NProbe, p.Ef, p.RerankFrames, p.TopN)
}
