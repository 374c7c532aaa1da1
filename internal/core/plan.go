package core

import (
	"fmt"
	"strconv"
)

// PlanKind records how a plan was chosen: the fixed defaults or a
// caller-pinned plan. It is reporting provenance only: two plans with equal
// execution fields produce the same bytes regardless of kind.
type PlanKind string

const (
	// PlanFixed is the default path: the resolved Config knobs.
	PlanFixed PlanKind = "fixed"
	// PlanPinned is a caller-supplied explicit plan (QueryOptions.Plan).
	PlanPinned PlanKind = "pinned"
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
	// returns. The fixed plan uses ShardK == FastK, which reproduces the
	// exact global top-FastK under exact per-shard search.
	ShardK int
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
}

// FixedPlan resolves the default query path for the receiver Config (which
// must be resolved, see Config.Resolved) and the per-query option
// overrides: the Config knobs, with the options' overrides applied.
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

// Leg returns the plan unchanged: every shard leg runs the global plan.
//
// Deprecated: the identity; remains only because benchmark/ calls it — removed with ROADMAP item 1.
func (p Plan) Leg(int) Plan { return p }

// Key canonicalises the plan's execution fields for result-cache keying:
// "x=<exact> k=<fast_k> sk=<shard_k> np=<nprobe> ef=<ef> rr=<rerank_frames>
// n=<top_n> sr=<skip_rerank>". The provenance field Kind is excluded: it
// never changes the answer bytes, so a pinned plan and the fixed plan it
// equals share one cache entry.
func (p Plan) Key() string { return string(p.AppendKey(make([]byte, 0, 64))) }

// AppendKey appends Key's bytes to b, so a caller building a longer key
// (the server's text + plan cache key) formats the plan into its own buffer.
func (p Plan) AppendKey(b []byte) []byte {
	b = append(b, "x="...)
	b = strconv.AppendBool(b, p.Exact)
	b = append(b, " k="...)
	b = strconv.AppendInt(b, int64(p.FastK), 10)
	b = append(b, " sk="...)
	b = strconv.AppendInt(b, int64(p.ShardK), 10)
	b = append(b, " np="...)
	b = strconv.AppendInt(b, int64(p.NProbe), 10)
	b = append(b, " ef="...)
	b = strconv.AppendInt(b, int64(p.Ef), 10)
	b = append(b, " rr="...)
	b = strconv.AppendInt(b, int64(p.RerankFrames), 10)
	b = append(b, " n="...)
	b = strconv.AppendInt(b, int64(p.TopN), 10)
	b = append(b, " sr="...)
	return strconv.AppendBool(b, p.SkipRerank)
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
