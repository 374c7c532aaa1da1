// The planner turns the accuracy-bounded query API (QueryOptions.MinRecall)
// into concrete plans. It never guesses from formulas: selectivity is
// sampled at ingest (per-term posting statistics, a deterministic sketch of
// the stored score distribution) and index effort is calibrated against
// exact-search ground truth — a ladder of NProbe/Ef rungs, each measured on
// probe vectors drawn from the stored sample and from vocabulary-term
// embeddings. Plan choice is then a lookup: the cheapest rung whose
// worst-case calibrated recall clears the bound plus a safety margin, with
// escalation to exact search when nothing qualifies or no calibration data
// exists. A validation loop periodically re-measures a live query's plan
// against exact ground truth and folds the error back into the margin, the
// sample-plan-execute-with-uncertainty loop MIRIS runs for video predicates.
package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// TermCount is one vocabulary term's posting statistics: how many object
// observations and distinct keyframes of this system's corpus carry it.
type TermCount struct {
	Name    string
	Objects int
	Frames  int
}

// Rung is one calibrated point on the index effort ladder: the recall the
// index delivered at this NProbe (IMI/IVF-PQ) or Ef (HNSW) against the
// exact top-FastK, measured over the probe set. MinRecall is the
// worst-case probe — the value plan selection trusts; MeanRecall is
// reported for observability.
type Rung struct {
	NProbe     int
	Ef         int
	MinRecall  float64
	MeanRecall float64
}

// PlanStats is the codec-friendly planning digest one shard exports: the
// selectivity sample, posting statistics and calibrated effort ladder a
// coordinator combines to plan across shards it cannot see into.
type PlanStats struct {
	// Entities is the shard's indexed vector count.
	Entities int
	// Dim is the sample vector dimensionality (ProjDim).
	Dim int
	// SampleEvery is the sketch stride: each sample vector stands for this
	// many stored vectors, which is the weight per-shard k estimation uses.
	SampleEvery int
	// Sample is the flattened, unit-normalised vector sketch in insertion
	// order (len = Dim * count).
	Sample []float32
	// Terms is the per-term posting statistics, sorted by name.
	Terms []TermCount
	// Rungs is the calibrated effort ladder (empty until calibration).
	Rungs []Rung
	// Calibrated reports whether Rungs is trustworthy; a shard that is
	// empty, unbuilt or never calibrated forces exact planning.
	Calibrated bool
	// Margin is the shard's current validation-adjusted safety margin.
	Margin float64
}

const (
	// plannerSampleCap bounds the vector sketch; on overflow the sketch
	// thins to every second vector and doubles its stride, staying
	// deterministic for equal ingest orders (so replicas agree).
	plannerSampleCap = 512
	// plannerProbeVecs and plannerProbeTerms bound the calibration probe
	// set: evenly-spaced stored vectors plus embeddings of the corpus's
	// most frequent vocabulary terms (text-shaped probes, since live
	// queries are text embeddings, not stored vectors).
	plannerProbeVecs  = 12
	plannerProbeTerms = 8
	// plannerInitMargin is the initial safety margin added to the caller's
	// bound before rung selection; the validation loop adapts it between
	// plannerMinMargin and plannerMaxMargin — the cap keeps one pathological
	// query from pushing every later plan to exact forever.
	plannerInitMargin = 0.02
	plannerMinMargin  = 0.01
	plannerMaxMargin  = 0.25
	// plannerMarginStep is added on top of a validation miss's shortfall;
	// plannerMarginDecay shrinks the margin after a comfortable hit.
	plannerMarginStep  = 0.01
	plannerMarginDecay = 0.9
)

// planner holds one System's planning state: the live digest (sketch, term
// table, calibrated ladder — exactly what PlanStats exports) and the policy
// that plans from it. All fields are guarded by mu; ingest-side hooks
// (observe, noteFrame) are cheap and run on the ingest goroutine,
// calibration runs lazily on the first bounded plan after a corpus change.
type planner struct {
	mu   sync.Mutex
	d    PlanStats
	seen int

	// calibGen, calibMaint and calibEntities key the ladder's staleness:
	// the ingest generation, store maintenance generation (MaintGen) and
	// entity count it was measured at.
	calibGen      uint64
	calibMaint    uint64
	calibEntities int

	policy *PlanPolicy
}

func newPlanner(cfg Config, enc *QueryEncoder) *planner {
	return &planner{
		d:      PlanStats{Dim: cfg.ProjDim, SampleEvery: 1},
		policy: NewPlanPolicy(enc, cfg.PlannerValidateEvery),
	}
}

// reset drops all planning state (snapshot restore rebuilds it from the
// restored corpus).
func (p *planner) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.d = PlanStats{Dim: p.d.Dim, SampleEvery: 1}
	p.seen = 0
	p.calibGen, p.calibMaint, p.calibEntities = 0, 0, 0
	p.policy = NewPlanPolicy(p.policy.enc, p.policy.validateEvery)
}

// observe folds one inserted vector into the score-distribution sketch:
// every SampleEvery-th vector is kept (normalised, as stored), and the
// sketch thins deterministically when full.
func (p *planner) observe(v []float32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen%p.d.SampleEvery == 0 {
		w := make([]float32, len(v))
		copy(w, v)
		mat.Normalize(w)
		p.d.Sample = append(p.d.Sample, w...)
		if len(p.d.Sample) >= plannerSampleCap*p.d.Dim {
			p.thinLocked()
		}
	}
	p.seen++
}

// thinLocked halves the sketch, keeping every second vector. Kept vectors
// sit on the doubled stride's lattice, so future picks stay consistent.
func (p *planner) thinLocked() {
	dim := p.d.Dim
	n := len(p.d.Sample) / dim
	kept := 0
	for i := 0; i < n; i += 2 {
		copy(p.d.Sample[kept*dim:(kept+1)*dim], p.d.Sample[i*dim:(i+1)*dim])
		kept++
	}
	p.d.Sample = p.d.Sample[:kept*dim]
	p.d.SampleEvery *= 2
}

// noteFrame folds one ingested keyframe into the per-term posting
// statistics: each term of the frame's objects (class, attributes,
// behaviours) and scene context counts one frame, and object-level terms
// additionally count their occurrences.
func (p *planner) noteFrame(f *video.Frame) {
	counts := make(map[string]int)
	for i := range f.Objects {
		o := &f.Objects[i]
		counts[o.Class]++
		for _, a := range o.Attrs {
			counts[a]++
		}
		for _, b := range o.Behaviors {
			counts[b]++
		}
	}
	for _, c := range f.Context {
		if _, ok := counts[c]; !ok {
			counts[c] = 0
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for t, n := range counts {
		i, ok := findTerm(p.d.Terms, t)
		if !ok {
			// Sorted insert: the table's order never depends on map order.
			p.d.Terms = slices.Insert(p.d.Terms, i, TermCount{Name: t})
		}
		p.d.Terms[i].Frames++
		p.d.Terms[i].Objects += n
	}
}

// findTerm binary-searches a name-sorted term table.
func findTerm(terms []TermCount, name string) (int, bool) {
	return slices.BinarySearchFunc(terms, name, func(tc TermCount, name string) int {
		return strings.Compare(tc.Name, name)
	})
}

// probeVectorsLocked draws up to plannerProbeVecs evenly spaced vectors
// from the sketch.
func (p *planner) probeVectorsLocked() []mat.Vec {
	dim := p.d.Dim
	n := len(p.d.Sample) / dim
	count := min(plannerProbeVecs, n)
	out := make([]mat.Vec, 0, count)
	for i := 0; i < count; i++ {
		idx := i * n / count
		out = append(out, slices.Clone(p.d.Sample[idx*dim:(idx+1)*dim]))
	}
	return out
}

// topTermsLocked returns the n most frequent term names (by distinct
// frames, ties by name) — the text-probe set for calibration.
func (p *planner) topTermsLocked(n int) []string {
	all := slices.Clone(p.d.Terms)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Frames > all[j].Frames })
	n = min(n, len(all))
	out := make([]string, n)
	for i := range out {
		out[i] = all[i].Name
	}
	return out
}

// MaintGen counts the store maintenance operations that changed what an
// approximate search sees: finished seal builds and compactions. Seals
// counts freezes, and a frozen segment is exact-scanned until its index
// build lands, so builds still pending are subtracted. Zero for a
// monolithic store. Ingest generations never see these operations — they
// run in the background — so planner staleness keys on both.
func MaintGen(seg vectordb.SegmentStats) uint64 {
	return seg.Seals - uint64(seg.Building) + seg.Compactions
}

// ensureCalibratedLocked brings the effort ladder up to date with the
// corpus. Calibration is lazy — it runs on the first bounded plan (or
// PlanStats export) after a mutation — and tolerant of small growth: once
// calibrated, the ladder is reused until the corpus grows by more than a
// quarter, so a bounded query stream concurrent with trickle ingest does
// not recalibrate per video. Store maintenance gets no such tolerance: a
// seal moves vectors from the exact-scanned growing segment (recall 1 at
// every rung) behind an approximate index without changing the entity
// count, so a ladder measured before it must not be trusted after.
func (p *planner) ensureCalibratedLocked(s *System) {
	gen := s.IngestGen()
	seg, _ := s.SegmentStats()
	maint := MaintGen(seg)
	if gen == p.calibGen && maint == p.calibMaint {
		return
	}
	ent := s.Entities()
	if maint == p.calibMaint && p.d.Calibrated && s.Built() &&
		ent >= p.calibEntities && ent <= p.calibEntities+p.calibEntities/4 {
		p.calibGen = gen
		return
	}
	p.calibGen, p.calibMaint, p.calibEntities = gen, maint, ent
	p.d.Rungs, p.d.Calibrated = p.calibrateLocked(s, ent)
}

// calibrateLocked measures the effort ladder against exact-search ground
// truth: for each probe, the exact top-FastK is computed once by
// exhaustive scan, then each rung's approximate search is scored against
// it. The ladder stops early once worst-case recall saturates. ok is false
// when there is nothing to measure (or a search failed): plan exact.
func (p *planner) calibrateLocked(s *System, ent int) (rungs []Rung, ok bool) {
	if ent == 0 || !s.Built() {
		return nil, false
	}
	// The flat scan is exact by construction: its ladder is the exact rung
	// alone, with nothing to measure.
	if s.cfg.Index == vectordb.IndexFlat {
		return []Rung{{MinRecall: 1, MeanRecall: 1}}, true
	}
	probes := p.probeVectorsLocked()
	probes = append(probes, s.probeTextVectors(p.topTermsLocked(plannerProbeTerms))...)
	if len(probes) == 0 {
		return nil, false
	}
	k := s.cfg.FastK
	scoredID := func(h mat.Scored) int64 { return h.ID }
	truth, err := s.searchVectorsBatch(probes, k, ann.Params{Exhaustive: true})
	if err != nil {
		return nil, false
	}
	exact := make([]map[int64]bool, len(probes))
	for i, hits := range truth {
		exact[i] = idSet(hits, scoredID)
	}
	var ladder []Rung
	if s.cfg.Index == vectordb.IndexHNSW {
		for _, ef := range []int{16, 32, 64, 128, 256} {
			ladder = append(ladder, Rung{Ef: ef})
		}
	} else {
		maxProbe := s.cfg.IndexOptions.M
		for _, np := range []int{1, 2, 4, 8, 16, 32, 64} {
			if maxProbe > 0 && np > maxProbe {
				break
			}
			ladder = append(ladder, Rung{NProbe: np})
		}
	}
	for _, rung := range ladder {
		lists, err := s.searchVectorsBatch(probes, k, ann.Params{NProbe: rung.NProbe, Ef: rung.Ef})
		if err != nil {
			return nil, false
		}
		minR, sum := 1.0, 0.0
		for i, hits := range lists {
			r := recallOf(exact[i], hits, scoredID)
			minR = min(minR, r)
			sum += r
		}
		rung.MinRecall = minR
		rung.MeanRecall = sum / float64(len(probes))
		rungs = append(rungs, rung)
		if minR >= 0.999 {
			break
		}
	}
	return rungs, true
}

// plan resolves one bounded query through the shared policy, from this
// system's own digest and with a whole-system StageRecall as the
// validation probe.
func (p *planner) plan(ctx context.Context, s *System, text string, opts QueryOptions) Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.policy.Resolve(ctx, s.cfg.FixedPlan(opts), opts.MinRecall, text, []PlanStats{p.digestLocked(s)},
		func(ctx context.Context, pl Plan) (float64, error) {
			return StageRecall(ctx, systemTarget{s}, text, pl)
		})
}

// digestLocked brings the live digest up to date (calibrating lazily if the
// corpus changed) and returns it; its slices alias planner state and are
// only valid under mu.
func (p *planner) digestLocked(s *System) PlanStats {
	p.ensureCalibratedLocked(s)
	p.d.Entities = s.Entities()
	p.d.Margin = p.policy.margin
	return p.d
}

// PlanStats exports the planning digest a scatter-gather coordinator
// combines across shards: selectivity sample, posting statistics, and the
// calibrated effort ladder (calibrating lazily first if the corpus changed).
func (s *System) PlanStats() PlanStats {
	p := s.planner
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.digestLocked(s)
	st.Sample = slices.Clone(st.Sample)
	st.Terms = slices.Clone(st.Terms)
	st.Rungs = slices.Clone(st.Rungs)
	return st
}

// probeTextVectors embeds vocabulary terms as fast-search query vectors —
// calibration probes shaped like live queries.
func (s *System) probeTextVectors(terms []string) []mat.Vec {
	var out []mat.Vec
	for _, t := range terms {
		if q, err := s.enc.Encode(t); err == nil {
			out = append(out, q)
		}
	}
	return out
}

// PlanPolicy is the ONE accuracy-bounded planning policy: rung selection
// over calibrated ladders, per-leg stage-1 depths, rerank-budget adaptation
// and the validation loop that adapts the safety margin. It plans from
// []PlanStats digests alone — one for a System, one per shard for a
// scatter-gather engine that cannot see into its (possibly remote)
// backends — and never asks which it serves:
//
//   - The effort rung is chosen so the *worst* leg still clears the bound:
//     a setting's predicted recall is the minimum over every non-empty
//     digest's ladder, and the cheapest clearing setting wins. A non-empty
//     digest without calibration data (empty, unbuilt, never sampled, or
//     unavailable) forces exact search — recall 1 by construction, never a
//     silent recall hole.
//   - Per-leg depth (Plan.ShardKs) comes from scoring the query against
//     every digest's weighted selectivity sample: a leg projected to
//     contribute few of the global top-FastK hits searches shallower.
//   - Term posting counts add across digests (legs partition the corpus)
//     to bound how many frames can match, which trims the rerank budget.
//   - Every validateEvery-th adaptive plan is measured inline by the
//     owner's probe; a miss escalates that query to exact and widens the
//     margin for later ones, a comfortable hit lets the margin decay.
//
// The owner serialises Resolve calls (each planner holds its own lock);
// LastMeasured is safe from any goroutine.
type PlanPolicy struct {
	enc           *QueryEncoder
	validateEvery int
	margin        float64
	planned       int
	lastMeasured  atomic.Uint64 // math.Float64bits
}

// NewPlanPolicy builds a policy for the query space enc embeds into;
// validateEvery <= 0 disables the validation loop.
func NewPlanPolicy(enc *QueryEncoder, validateEvery int) *PlanPolicy {
	return &PlanPolicy{enc: enc, validateEvery: validateEvery, margin: plannerInitMargin}
}

// LastMeasured reports the most recent validation measurement (0 until the
// loop has run), without queueing behind a plan in progress.
func (pp *PlanPolicy) LastMeasured() float64 { return math.Float64frombits(pp.lastMeasured.Load()) }

// Resolve chooses the cheapest plan predicted to reach minRecall, starting
// from the fixed plan base (see the type comment for the strategy). probe
// measures a candidate plan's stage-1 recall on live data.
func (pp *PlanPolicy) Resolve(ctx context.Context, base Plan, minRecall float64, text string,
	digests []PlanStats, probe func(context.Context, Plan) (float64, error)) Plan {
	exact := base
	exact.Exact = true
	exact.Kind, exact.PredictedRecall = PlanAdaptiveExact, 1
	if base.Exact {
		return exact
	}
	rung, ok := cheapestRung(digests, minRecall+pp.margin)
	if !ok {
		return exact
	}
	pl := base
	pl.Kind = PlanAdaptive
	pl.PredictedRecall = rung.MinRecall
	if rung.NProbe > 0 {
		pl.NProbe = rung.NProbe
	}
	if rung.Ef > 0 {
		pl.Ef = rung.Ef
	}
	pl.ShardKs = legDepths(pp.enc, digests, text, pl.FastK)
	if !pl.SkipRerank {
		if m, ok := rarestTermFrames(digests, text); ok {
			pl.RerankFrames = AdaptRerankBudget(m, base.RerankFrames, base.TopN)
		}
	}
	pp.planned++
	if pp.validateEvery > 0 && pp.planned%pp.validateEvery == 0 {
		// The inline probe is real per-query work; give it a span so slow
		// planning shows up attributed in the caller's trace, not as a
		// mystery gap between plan and stage1.
		vctx, vsp := obs.Start(ctx, "plan.validate")
		measured, err := probe(vctx, pl)
		vsp.End()
		if err == nil {
			pp.lastMeasured.Store(math.Float64bits(measured))
			var miss bool
			if pp.margin, miss = adaptMargin(pp.margin, minRecall, measured); miss {
				return exact
			}
		}
	}
	return pl
}

// adaptMargin is the one margin rule. A validation miss (measured below
// the bound) grows the margin by the shortfall plus plannerMarginStep,
// capped at plannerMaxMargin, and reports miss so the caller escalates
// that query to exact. A comfortable hit (the bound cleared by more than
// the margin) decays it by plannerMarginDecay, floored at plannerMinMargin.
func adaptMargin(margin, bound, measured float64) (next float64, miss bool) {
	switch {
	case measured < bound:
		return math.Min(plannerMaxMargin, margin+(bound-measured)+plannerMarginStep), true
	case measured-bound > margin:
		return math.Max(plannerMinMargin, margin*plannerMarginDecay), false
	}
	return margin, false
}

// cheapestRung returns the cheapest ladder setting whose worst-case
// calibrated recall over every non-empty digest reaches need, with that
// recall in MinRecall. Candidate settings are the union of the digests'
// ladders in ascending effort.
func cheapestRung(digests []PlanStats, need float64) (Rung, bool) {
	var live []*PlanStats
	var settings []Rung
	for i := range digests {
		st := &digests[i]
		if st.Entities == 0 {
			continue
		}
		if !st.Calibrated {
			return Rung{}, false
		}
		live = append(live, st)
		for _, r := range st.Rungs {
			if s := (Rung{NProbe: r.NProbe, Ef: r.Ef}); !slices.Contains(settings, s) {
				settings = append(settings, s)
			}
		}
	}
	sort.Slice(settings, func(i, j int) bool {
		a, b := settings[i], settings[j]
		if a.NProbe != b.NProbe {
			return a.NProbe < b.NProbe
		}
		return a.Ef < b.Ef
	})
	for _, s := range settings {
		worst, ok := 1.0, true
		for _, st := range live {
			r, has := recallAt(st, s)
			worst, ok = min(worst, r), ok && has
		}
		if ok && worst >= need {
			s.MinRecall = worst
			return s, true
		}
	}
	return Rung{}, false
}

// recallAt reads one digest's calibrated recall at a ladder setting. A
// ladder that stopped early at saturation (final rung >= 0.999) extends
// flat for wider settings: more effort cannot lose recall.
func recallAt(st *PlanStats, s Rung) (float64, bool) {
	for _, r := range st.Rungs {
		if r.NProbe == s.NProbe && r.Ef == s.Ef {
			return r.MinRecall, true
		}
	}
	if n := len(st.Rungs); n > 0 {
		last := st.Rungs[n-1]
		if last.MinRecall >= 0.999 && (s.NProbe > last.NProbe || s.Ef > last.Ef) {
			return last.MinRecall, true
		}
	}
	return 0, false
}

// legDepths projects each leg's contribution to the global top-FastK by
// scoring the query against every digest's weighted selectivity sample,
// then assigns per-leg depths with a 2x-plus-slack safety factor. When the
// combined samples are too sparse to resolve FastK hits (fewer than 4*FastK
// weighted vectors), or every leg comes out at full depth anyway — a lone
// leg always does, so it is never scored — the result is nil: every leg
// searches Plan.ShardK.
func legDepths(enc *QueryEncoder, digests []PlanStats, text string, fastK int) []int {
	if len(digests) < 2 {
		return nil
	}
	q, err := enc.Encode(text)
	if err != nil {
		return nil
	}
	type scored struct {
		score       float32
		leg, weight int
	}
	var all []scored
	totalWeight := 0
	for i := range digests {
		st := &digests[i]
		if st.Dim == 0 {
			continue
		}
		w := max(st.SampleEvery, 1)
		for j := 0; j+st.Dim <= len(st.Sample); j += st.Dim {
			all = append(all, scored{mat.Dot(q, st.Sample[j:j+st.Dim]), i, w})
			totalWeight += w
		}
	}
	if totalWeight < 4*fastK {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	est := make([]int, len(digests))
	for acc := 0; len(all) > 0 && acc < fastK; all = all[1:] {
		est[all[0].leg] += all[0].weight
		acc += all[0].weight
	}
	depths := make([]int, len(digests))
	trimmed := false
	for i := range depths {
		depths[i] = min(est[i]*2+32, fastK)
		if digests[i].Entities == 0 {
			depths[i] = fastK // an empty leg answers instantly at any depth
		}
		trimmed = trimmed || depths[i] < fastK
	}
	if !trimmed {
		return nil
	}
	return depths
}

// rarestTermFrames estimates how many distinct keyframes can match the
// query at all: the smallest frame count over the query's fast-search
// terms, each summed across digests (legs partition the corpus, so counts
// add). A term absent from the corpus estimates zero.
func rarestTermFrames(digests []PlanStats, text string) (int, bool) {
	m, found := 0, false
	for _, t := range query.Parse(text).FastTerms() {
		frames := 0
		for i := range digests {
			if j, ok := findTerm(digests[i].Terms, t.Name); ok {
				frames += digests[i].Terms[j].Frames
			}
		}
		if !found || frames < m {
			m, found = frames, true
		}
	}
	return m, found
}

// AdaptRerankBudget trims the stage-2 frame budget for selective queries:
// when at most m frames can match, examining many more than m candidates
// only burns transformer passes on frames that cannot ground. The budget
// never grows past the configured default (the fixed path's cost ceiling)
// and never shrinks below the answer size.
func AdaptRerankBudget(m, def, topN int) int {
	budget := m + 4
	floor := topN
	if floor < 8 {
		floor = 8
	}
	if budget < floor {
		budget = floor
	}
	if budget > def {
		budget = def
	}
	return budget
}
