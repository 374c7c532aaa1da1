package shard

import (
	"context"
	"sync"

	"repro/internal/core"
)

// enginePlanner resolves accuracy-bounded queries into scatter plans for an
// Engine through the shared policy (core.PlanPolicy). All it owns is what
// only an engine has: the shards' exported PlanStats digests — it never
// needs to see into a backend, so remote shards plan the same as local
// ones — refreshed when the fleet changes, and the validation probe, which
// measures ONE round-robin shard's plan leg against its exact leg instead
// of paying a full exact scatter.
type enginePlanner struct {
	mu         sync.Mutex
	policy     *core.PlanPolicy
	stats      []core.PlanStats
	statsKey   uint64
	haveStats  bool
	validateRR int
}

func newEnginePlanner(cfg core.Config) *enginePlanner {
	return &enginePlanner{policy: core.NewPlanPolicy(core.NewQueryEncoder(cfg), cfg.PlannerValidateEvery)}
}

// digestsLocked returns every shard's planning digest, re-fetching them
// when the fleet's ingest generation or its store maintenance generation
// (seals and compactions run in the background and never advance the
// former) moved — which also triggers lazy calibration on each shard. Nil
// when any shard's digest is unavailable: the policy then plans exact
// rather than guessing.
func (p *enginePlanner) digestsLocked(e *Engine) []core.PlanStats {
	st := e.Status()
	key := st.Gen + core.MaintGen(st.Segments)
	if p.haveStats && key == p.statsKey {
		return p.stats
	}
	stats := make([]core.PlanStats, len(e.backends))
	errs := make([]error, len(e.backends))
	core.ParallelFor(len(e.backends), len(e.backends), func(i int) {
		stats[i], errs[i] = e.backends[i].PlanStats()
	})
	p.haveStats = firstErr(errs) == nil
	if !p.haveStats {
		return nil
	}
	p.stats, p.statsKey = stats, key
	return stats
}

// plan resolves one bounded query into a scatter plan.
func (p *enginePlanner) plan(ctx context.Context, e *Engine, text string, opts core.QueryOptions) core.Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.policy.Resolve(ctx, e.cfg.FixedPlan(opts), opts.MinRecall, text, p.digestsLocked(e),
		func(ctx context.Context, pl core.Plan) (float64, error) {
			leg := legTarget{engineTarget{e}, p.validateRR % len(e.backends)}
			p.validateRR++
			return core.StageRecall(ctx, leg, text, pl)
		})
}

// legTarget narrows an engine's stage 1 to one shard leg — the validation
// probe's target.
type legTarget struct {
	engineTarget
	i int
}

func (t legTarget) ScatterSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][][]core.ResultObject, error) {
	lists, err := t.e.backends[t.i].FastSearchBatch(ctx, texts, legPlans(plans, t.i))
	if err != nil {
		return nil, err
	}
	out := make([][][]core.ResultObject, len(lists))
	for qi, hits := range lists {
		out[qi] = [][]core.ResultObject{hits}
	}
	return out, nil
}
