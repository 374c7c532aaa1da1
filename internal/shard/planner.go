package shard

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/query"
)

// enginePlanner resolves accuracy-bounded queries into scatter plans for an
// Engine. It plans from the shards' exported PlanStats digests — it never
// needs to see into a backend, so remote shards plan the same as local ones:
//
//   - The effort rung (NProbe/Ef) is chosen so the *worst* shard still
//     clears the bound: for each candidate setting, the predicted recall is
//     the minimum across every non-empty shard's calibrated ladder, and the
//     cheapest clearing setting wins. Any non-empty shard without
//     calibration data forces exact search — never a silent recall hole.
//   - Per-shard stage-1 depth (Plan.ShardKs) comes from scoring the query
//     against every shard's weighted selectivity sample: a shard projected
//     to contribute few of the global top-FastK hits searches shallower,
//     with a 2x-plus-slack safety factor and never below what the samples
//     can actually resolve.
//
// Like the core planner, every validateEvery-th adaptive plan is validated
// against exact ground truth — here on one round-robin shard, comparing the
// shard's plan leg against its exact leg — and the safety margin adapts
// from the measurement.
type enginePlanner struct {
	mu            sync.Mutex
	enc           *core.QueryEncoder
	stats         []core.PlanStats
	statsGen      uint64
	haveStats     bool
	margin        float64
	planned       int
	validateEvery int
	validateRR    int
	// lastMeasured holds math.Float64bits of the most recent validation
	// measurement; atomic so Engine.Status reads it without queueing behind
	// a plan in progress.
	lastMeasured atomic.Uint64
}

func newEnginePlanner(cfg core.Config) *enginePlanner {
	return &enginePlanner{
		enc:           core.NewQueryEncoder(cfg),
		margin:        0.02,
		validateEvery: cfg.PlannerValidateEvery,
	}
}

// refreshStatsLocked re-fetches every shard's planning digest when the
// engine generation moved (which also triggers lazy calibration on each
// shard). Returns false when any shard's digest is unavailable — the
// caller falls back to exact planning rather than guessing.
func (p *enginePlanner) refreshStatsLocked(e *Engine) bool {
	gen := e.Status().Gen
	if p.haveStats && gen == p.statsGen {
		return true
	}
	stats := make([]core.PlanStats, len(e.backends))
	errs := make([]error, len(e.backends))
	core.ParallelFor(len(e.backends), len(e.backends), func(i int) {
		stats[i], errs[i] = e.backends[i].PlanStats()
	})
	if firstErr(errs) != nil {
		p.haveStats = false
		return false
	}
	p.stats = stats
	p.statsGen = gen
	p.haveStats = true
	return true
}

// minRecallAt returns the minimum predicted recall across all non-empty
// shards for one ladder setting (effort knobs plus the int8 stage-1 flag),
// and whether every such shard could predict it. A shard whose ladder
// stopped early at saturation (final float rung >= 0.999) extends flat for
// wider float settings: more effort cannot lose recall. Int8 settings never
// extend — they must have been measured on every shard.
func (p *enginePlanner) minRecallAt(nprobe, ef int, int8Scan bool) (float64, bool) {
	minR := 1.0
	for i := range p.stats {
		st := &p.stats[i]
		if st.Entities == 0 {
			continue
		}
		r, ok := -1.0, false
		for _, rung := range st.Rungs {
			if rung.NProbe == nprobe && rung.Ef == ef && rung.Int8 == int8Scan {
				r, ok = rung.MinRecall, true
				break
			}
		}
		if !ok && !int8Scan && len(st.Rungs) > 0 {
			last := st.Rungs[len(st.Rungs)-1]
			if !last.Int8 && last.MinRecall >= 0.999 && (nprobe > last.NProbe || ef > last.Ef) {
				r, ok = last.MinRecall, true
			}
		}
		if !ok {
			return 0, false
		}
		if r < minR {
			minR = r
		}
	}
	return minR, true
}

// ladderSettings returns the union of every non-empty shard's calibrated
// settings in ascending effort order; at equal effort knobs the int8 rung
// (the cheaper stage-1 scorer) sorts first.
func (p *enginePlanner) ladderSettings() []core.Rung {
	type setting struct {
		np, ef int
		i8     bool
	}
	seen := make(map[setting]bool)
	var out []core.Rung
	for i := range p.stats {
		if p.stats[i].Entities == 0 {
			continue
		}
		for _, rung := range p.stats[i].Rungs {
			k := setting{rung.NProbe, rung.Ef, rung.Int8}
			if !seen[k] {
				seen[k] = true
				out = append(out, core.Rung{NProbe: rung.NProbe, Ef: rung.Ef, Int8: rung.Int8})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NProbe != out[j].NProbe {
			return out[i].NProbe < out[j].NProbe
		}
		if out[i].Ef != out[j].Ef {
			return out[i].Ef < out[j].Ef
		}
		return out[i].Int8 && !out[j].Int8
	})
	return out
}

// shardDepths projects each shard's contribution to the global top-FastK
// by scoring the query against every shard's weighted selectivity sample,
// then assigns per-shard depths with a 2x-plus-slack safety factor. When
// the combined samples are too sparse to resolve FastK hits (fewer than
// 4*FastK weighted vectors), every shard keeps full depth.
func (p *enginePlanner) shardDepths(q mat.Vec, fastK int) []int {
	type scored struct {
		score  float32
		shard  int
		weight int
	}
	var all []scored
	totalWeight := 0
	for i := range p.stats {
		st := &p.stats[i]
		if st.Dim == 0 || len(st.Sample) == 0 {
			continue
		}
		w := st.SampleEvery
		if w < 1 {
			w = 1
		}
		n := len(st.Sample) / st.Dim
		for j := 0; j < n; j++ {
			v := st.Sample[j*st.Dim : (j+1)*st.Dim]
			all = append(all, scored{score: mat.Dot(q, v), shard: i, weight: w})
			totalWeight += w
		}
	}
	if totalWeight < 4*fastK {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	est := make([]int, len(p.stats))
	acc := 0
	for _, s := range all {
		if acc >= fastK {
			break
		}
		est[s.shard] += s.weight
		acc += s.weight
	}
	depths := make([]int, len(p.stats))
	for i := range depths {
		d := est[i]*2 + 32
		if d > fastK {
			d = fastK
		}
		if p.stats[i].Entities == 0 {
			d = fastK // empty shard answers instantly at any depth
		}
		depths[i] = d
	}
	return depths
}

// rarestTermFrames estimates the query's matchable keyframes corpus-wide:
// the smallest fast-term frame count, summed across shards (shards
// partition the corpus, so counts add).
func (p *enginePlanner) rarestTermFrames(text string) (int, bool) {
	parsed := query.Parse(text)
	terms := parsed.FastTerms()
	if len(terms) == 0 {
		return 0, false
	}
	totals := make(map[string]int)
	for i := range p.stats {
		for _, tc := range p.stats[i].Terms {
			totals[tc.Name] += tc.Frames
		}
	}
	m, found := 0, false
	for _, t := range terms {
		frames := totals[t.Name]
		if !found || frames < m {
			m, found = frames, true
		}
	}
	return m, found
}

// plan resolves one bounded query into a scatter plan (see the type
// comment for the strategy).
func (p *enginePlanner) plan(ctx context.Context, e *Engine, text string, opts core.QueryOptions) core.Plan {
	base := e.cfg.FixedPlan(opts)
	exact := func() core.Plan {
		x := base
		x.Exact = true
		x.Int8 = false
		x.Kind = core.PlanAdaptiveExact
		x.PredictedRecall = 1
		return x
	}
	if opts.Exhaustive {
		return exact()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.refreshStatsLocked(e) {
		return exact()
	}
	anyData := false
	for i := range p.stats {
		if p.stats[i].Entities > 0 {
			if !p.stats[i].Calibrated {
				return exact()
			}
			anyData = true
		}
	}
	if !anyData {
		return exact()
	}
	need := opts.MinRecall + p.margin
	var chosen *core.Rung
	var predicted float64
	for _, setting := range p.ladderSettings() {
		r, ok := p.minRecallAt(setting.NProbe, setting.Ef, setting.Int8)
		if ok && r >= need {
			s := setting
			chosen, predicted = &s, r
			break
		}
	}
	if chosen == nil {
		return exact()
	}
	pl := base
	pl.Kind = core.PlanAdaptive
	pl.PredictedRecall = predicted
	pl.Int8 = chosen.Int8
	if chosen.NProbe > 0 {
		pl.NProbe = chosen.NProbe
	}
	if chosen.Ef > 0 {
		pl.Ef = chosen.Ef
	}
	if q, err := p.enc.Encode(text); err == nil {
		pl.ShardKs = p.shardDepths(q, pl.FastK)
	}
	if !pl.SkipRerank {
		if m, ok := p.rarestTermFrames(text); ok {
			pl.RerankFrames = core.AdaptRerankBudget(m, base.RerankFrames, base.TopN)
		}
	}
	p.planned++
	if p.validateEvery > 0 && p.planned%p.validateEvery == 0 {
		si := p.validateRR % len(e.backends)
		p.validateRR++
		if measured, err := e.shardStageRecall(ctx, si, text, pl); err == nil {
			p.lastMeasured.Store(math.Float64bits(measured))
			if measured < opts.MinRecall {
				grow := p.margin + (opts.MinRecall - measured) + 0.01
				if grow > 0.25 {
					grow = 0.25
				}
				p.margin = grow
				return exact()
			}
			if measured-opts.MinRecall > p.margin && p.margin > 0.01 {
				p.margin *= 0.9
			}
		}
	}
	return pl
}

// shardStageRecall measures one shard's stage-1 recall for a plan leg
// against that shard's exact leg — the engine validation probe (one shard
// per validation, round-robin, instead of a full exact scatter).
func (e *Engine) shardStageRecall(ctx context.Context, i int, text string, plan core.Plan) (float64, error) {
	plan = e.cfg.NormalizePlan(plan)
	xp := plan.Leg(i)
	xp.Exact = true
	xp.ShardK = plan.FastK
	exact, err := e.backends[i].FastSearch(ctx, text, xp)
	if err != nil {
		return 0, err
	}
	if len(exact) == 0 {
		return 1, nil
	}
	hits, err := e.backends[i].FastSearch(ctx, text, plan.Leg(i))
	if err != nil {
		return 0, err
	}
	ids := make(map[int64]bool, len(hits))
	for _, h := range hits {
		ids[h.PatchID] = true
	}
	overlap := 0
	for _, h := range exact {
		if ids[h.PatchID] {
			overlap++
		}
	}
	return float64(overlap) / float64(len(exact)), nil
}

// StageRecall measures a plan's global stage-1 recall against the exact
// scatter's merged top-FastK — the bench harness's "measured recall"
// column for engine deployments.
func (e *Engine) StageRecall(text string, plan core.Plan) (float64, error) {
	plan = e.cfg.NormalizePlan(plan)
	xp := plan
	xp.Exact = true
	xp.ShardKs = nil
	xp.ShardK = plan.FastK
	target := engineTarget{e}
	//lovo:ctx-ok bench-harness measurement API with no caller context; the traced path is the inline validation probe (shardStageRecall)
	exactLists, err := target.ScatterSearch(context.Background(), text, xp)
	if err != nil {
		return 0, err
	}
	exact := core.MergeHits(exactLists, plan.FastK)
	if len(exact) == 0 {
		return 1, nil
	}
	//lovo:ctx-ok bench-harness measurement API with no caller context; the traced path is the inline validation probe (shardStageRecall)
	lists, err := target.ScatterSearch(context.Background(), text, plan)
	if err != nil {
		return 0, err
	}
	approx := core.MergeHits(lists, plan.FastK)
	ids := make(map[int64]bool, len(approx))
	for _, h := range approx {
		ids[h.PatchID] = true
	}
	overlap := 0
	for _, h := range exact {
		if ids[h.PatchID] {
			overlap++
		}
	}
	return float64(overlap) / float64(len(exact)), nil
}
