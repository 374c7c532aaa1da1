package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/vectordb"
)

// plannerKinds is every index family the planner must bound.
var plannerKinds = []vectordb.IndexKind{
	vectordb.IndexFlat,
	vectordb.IndexIMI,
	vectordb.IndexIVFPQ,
	vectordb.IndexHNSW,
}

func plannerSystem(t *testing.T, kind vectordb.IndexKind) (*System, *datasets.Dataset) {
	t.Helper()
	ds := datasets.QVHighlights(datasets.Config{Seed: 17, Scale: 0.05})
	sys, err := New(Config{Seed: 17, Index: kind})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return sys, ds
}

// TestPlannerMeetsRecallBoundAllKinds is the planner acceptance pin: on
// every index kind, a MinRecall-bounded plan's measured stage-1 recall
// against the exact-search ground truth must meet the bound, and planning
// is deterministic — the same query plans identically twice.
func TestPlannerMeetsRecallBoundAllKinds(t *testing.T) {
	const bound = 0.9
	kinds := plannerKinds
	if testing.Short() {
		kinds = []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIMI}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			sys, ds := plannerSystem(t, kind)
			queries := ds.Queries
			if len(queries) > 6 {
				queries = queries[:6]
			}
			for _, q := range queries {
				opts := QueryOptions{MinRecall: bound}
				plan, err := sys.PlanQueryCtx(context.Background(), q.Text, opts)
				if err != nil {
					t.Fatalf("%s: plan: %v", q.ID, err)
				}
				if plan.Kind != PlanAdaptive && plan.Kind != PlanAdaptiveExact {
					t.Fatalf("%s: bounded plan has kind %q", q.ID, plan.Kind)
				}
				if plan.PredictedRecall < bound {
					t.Fatalf("%s: plan predicts %v below the %v bound: %s",
						q.ID, plan.PredictedRecall, bound, plan)
				}
				rec, err := StageRecall(context.Background(), sys.Target(), q.Text, plan)
				if err != nil {
					t.Fatalf("%s: measuring recall: %v", q.ID, err)
				}
				if rec < bound {
					t.Errorf("%s: measured recall %v below bound %v under plan %s",
						q.ID, rec, bound, plan)
				}
				again, err := sys.PlanQueryCtx(context.Background(), q.Text, opts)
				if err != nil {
					t.Fatal(err)
				}
				// The validation loop may tighten the margin between calls;
				// the execution fields are what determinism pins.
				if again.Key() != plan.Key() {
					t.Errorf("%s: planning is not deterministic: %s vs %s", q.ID, plan, again)
				}
			}
			// A bound of exactly 1 must escalate to exact search on
			// approximate indexes (recall 1 by construction).
			plan, err := sys.PlanQueryCtx(context.Background(), queries[0].Text, QueryOptions{MinRecall: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Exact {
				t.Fatalf("MinRecall=1 must plan exact search, got %s", plan)
			}
		})
	}
}

// TestDefaultPlanMatchesFixedKnobs pins the no-bound default: PlanQueryCtx
// without a bound or a pin resolves to the fixed plan — the exact knobs
// every query ran with before plans existed — and executing it answers
// byte-identically to Query.
func TestDefaultPlanMatchesFixedKnobs(t *testing.T) {
	sys, ds := plannerSystem(t, vectordb.IndexIMI)
	for _, opts := range []QueryOptions{
		{},
		{FastK: 40, TopN: 5},
		{DisableRerank: true},
		{Exhaustive: true, RerankFrames: 12},
	} {
		text := ds.Queries[0].Text
		plan, err := sys.PlanQueryCtx(context.Background(), text, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := sys.cfg.FixedPlan(opts); !reflect.DeepEqual(plan, want) {
			t.Fatalf("default plan %+v != fixed plan %+v", plan, want)
		}
		want, err := Query(context.Background(), sys, text, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.QueryPlanned(context.Background(), text, plan, opts.Workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("opts %+v: plan execution diverges from Query", opts)
		}
	}
}

// TestPlannerCalibration: PlanStats triggers calibration and exports a
// sane digest — a bounded sample, term counts covering the corpus
// vocabulary, and rungs with recalls in [0, 1] at increasing effort.
func TestPlannerCalibration(t *testing.T) {
	sys, _ := plannerSystem(t, vectordb.IndexIVFPQ)
	st := sys.PlanStats()
	if !st.Calibrated {
		t.Fatal("PlanStats on a built system must calibrate")
	}
	if st.Entities == 0 || st.Dim == 0 || len(st.Sample) == 0 || len(st.Terms) == 0 {
		t.Fatalf("digest missing data: %+v", st)
	}
	if len(st.Sample)%st.Dim != 0 {
		t.Fatalf("sample length %d not a multiple of dim %d", len(st.Sample), st.Dim)
	}
	if len(st.Rungs) == 0 {
		t.Fatal("no calibrated rungs")
	}
	for i, r := range st.Rungs {
		if r.MinRecall < 0 || r.MinRecall > 1 || r.MeanRecall < r.MinRecall {
			t.Fatalf("rung %d malformed: %+v", i, r)
		}
		// Effort must ascend: NProbe never decreases, and at equal NProbe
		// the only legal pairing is the cheaper int8 rung directly before
		// its float sibling.
		if i > 0 {
			prev := st.Rungs[i-1]
			if r.NProbe < prev.NProbe ||
				(r.NProbe == prev.NProbe && !(prev.Int8 && !r.Int8)) {
				t.Fatalf("rungs not at increasing effort: %+v", st.Rungs)
			}
		}
	}
}

// TestPlannerRecalibratesAfterSeal: a ladder calibrated while most vectors
// sat in the exact-scanned growing segment reads recall 1 at every rung. A
// background seal then moves them behind an approximate index without
// advancing the ingest generation or the entity count — the ladder must be
// re-measured, or bounded plans keep the cheapest rung and miss the bound.
func TestPlannerRecalibratesAfterSeal(t *testing.T) {
	const bound = 0.9
	ds := datasets.QVHighlights(datasets.Config{Seed: 17, Scale: 0.05})
	// A seal threshold no ingest here reaches: only explicit seals happen.
	sys, err := New(Config{Seed: 17, Streaming: true, SegmentSize: 1 << 20, PlannerValidateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Boot empty and built, as a live-ingest worker does; everything then
	// arrives into the growing segment.
	if err := sys.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	text := ds.Queries[0].Text
	opts := QueryOptions{MinRecall: bound}
	before, err := sys.PlanQueryCtx(context.Background(), text, opts)
	if err != nil {
		t.Fatal(err)
	}
	seg := sys.Segmented()
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := seg.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries {
		plan, err := sys.PlanQueryCtx(context.Background(), q.Text, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := StageRecall(context.Background(), sys.Target(), q.Text, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rec < bound {
			t.Errorf("%s: measured recall %v below bound %v after the seal (plan before: %s, after: %s)",
				q.ID, rec, bound, before, plan)
		}
	}
}

// TestAdaptMarginRule pins the one margin rule both deployment shapes plan
// under: a validation miss grows the margin by the shortfall plus a step,
// capped, and escalates; a comfortable hit decays it, floored — never below
// the floor, which is where two hand-copied versions of this rule had
// drifted apart.
func TestAdaptMarginRule(t *testing.T) {
	for _, c := range []struct {
		name                    string
		margin, bound, measured float64
		want                    float64
		miss                    bool
	}{
		{"miss grows by shortfall plus step", 0.02, 0.9, 0.85, 0.02 + 0.05 + plannerMarginStep, true},
		{"miss is capped", 0.2, 0.9, 0.5, plannerMaxMargin, true},
		{"miss at the cap stays there", plannerMaxMargin, 0.9, 0.89, plannerMaxMargin, true},
		{"hit inside the margin holds", 0.02, 0.9, 0.91, 0.02, false},
		{"hit exactly on the bound holds", 0.02, 0.9, 0.9, 0.02, false},
		{"comfortable hit decays", 0.1, 0.8, 0.95, 0.1 * plannerMarginDecay, false},
		{"decay is floored", 0.0105, 0.8, 1, plannerMinMargin, false},
		{"the floor is a fixed point", plannerMinMargin, 0.8, 1, plannerMinMargin, false},
	} {
		got, miss := adaptMargin(c.margin, c.bound, c.measured)
		if math.Abs(got-c.want) > 1e-12 || miss != c.miss {
			t.Errorf("%s: adaptMargin(%v, %v, %v) = (%v, %v), want (%v, %v)",
				c.name, c.margin, c.bound, c.measured, got, miss, c.want, c.miss)
		}
	}
}

// TestValidateMinRecall pins the exported bound validation.
func TestValidateMinRecall(t *testing.T) {
	for _, ok := range []float64{0, 0.01, 0.5, 1} {
		if err := ValidateMinRecall(ok); err != nil {
			t.Errorf("ValidateMinRecall(%v) = %v, want nil", ok, err)
		}
	}
	bad := []float64{-0.1, 1.0000001, 42}
	for _, b := range bad {
		if err := ValidateMinRecall(b); err == nil {
			t.Errorf("ValidateMinRecall(%v) = nil, want error", b)
		}
	}
}

// TestAdaptRerankBudget pins the shrink-only rerank adaptation: never
// above the configured default, never below the answer size (or the
// 8-frame floor), and tracking the matchable-frame ceiling in between.
func TestAdaptRerankBudget(t *testing.T) {
	cases := []struct {
		m, def, topN, want int
	}{
		{0, 64, 10, 10},   // nothing matches: floor at topN
		{0, 64, 2, 8},     // tiny topN: absolute floor of 8
		{5, 64, 2, 9},     // m+4 above the floor
		{100, 64, 10, 64}, // plenty matchable: capped at the default
		{60, 64, 10, 64},  // m+4 just past the default: capped
		{20, 64, 10, 24},  // interior: m+4
	}
	for _, c := range cases {
		if got := AdaptRerankBudget(c.m, c.def, c.topN); got != c.want {
			t.Errorf("AdaptRerankBudget(%d, %d, %d) = %d, want %d", c.m, c.def, c.topN, got, c.want)
		}
	}
}

func hit(patch int64, score float32, video, frame int) ResultObject {
	return ResultObject{VideoID: video, FrameIdx: frame, Score: score, PatchID: patch}
}

// TestMergeHitsEdgeCases covers the stage-1 merge at its boundaries: no
// lists, empty lists, a cut larger than the candidate set, no cut at all,
// and all-ties scores (patch ID must break every tie).
func TestMergeHitsEdgeCases(t *testing.T) {
	if got := MergeHits(nil, 10); len(got) != 0 {
		t.Fatalf("merge of no lists = %v", got)
	}
	if got := MergeHits([][]ResultObject{{}, nil, {}}, 10); len(got) != 0 {
		t.Fatalf("merge of empty lists = %v", got)
	}
	a := []ResultObject{hit(1, 0.9, 0, 0), hit(7, 0.5, 0, 3)}
	b := []ResultObject{hit(4, 0.7, 1, 0)}
	if got := MergeHits([][]ResultObject{a, b}, 100); len(got) != 3 {
		t.Fatalf("cut larger than candidates must keep all: %v", got)
	}
	if got := MergeHits([][]ResultObject{a, b}, 0); len(got) != 3 {
		t.Fatalf("fastK=0 must not truncate: %v", got)
	}
	// All-ties: order must be patch ID ascending, regardless of list order.
	ties := [][]ResultObject{
		{hit(9, 0.5, 0, 0), hit(2, 0.5, 0, 1)},
		{hit(5, 0.5, 1, 0)},
	}
	got := MergeHits(ties, 2)
	if len(got) != 2 || got[0].PatchID != 2 || got[1].PatchID != 5 {
		t.Fatalf("tied scores must cut by ascending patch ID: %v", got)
	}
}

// TestSelectForRerankEdgeCases covers the stage-2 budget selection: empty
// input, a budget covering everything (input returned as-is), a disabled
// budget, and single-frame videos — which can never be "temporally close"
// to one another, so diversity deferral must not drop them.
func TestSelectForRerankEdgeCases(t *testing.T) {
	if got := SelectForRerank(nil, 4); len(got) != 0 {
		t.Fatalf("empty refs select %v", got)
	}
	refs := []FrameRef{{VideoID: 0, FrameIdx: 0}, {VideoID: 0, FrameIdx: 1}, {VideoID: 1, FrameIdx: 0}}
	if got := SelectForRerank(refs, 10); !reflect.DeepEqual(got, refs) {
		t.Fatalf("budget above candidate count must keep all in order: %v", got)
	}
	if got := SelectForRerank(refs, 0); !reflect.DeepEqual(got, refs) {
		t.Fatalf("budget 0 disables the cut: %v", got)
	}
	// Ten single-frame videos: all temporally distinct, so the cut is a
	// plain prefix of the budget size.
	var singles []FrameRef
	for v := 0; v < 10; v++ {
		singles = append(singles, FrameRef{VideoID: v, FrameIdx: 0})
	}
	got := SelectForRerank(singles, 6)
	if !reflect.DeepEqual(got, singles[:6]) {
		t.Fatalf("single-frame videos must fill the budget in order: %v", got)
	}
	// Adjacent frames of one video defer to distinct moments first.
	clustered := []FrameRef{
		{VideoID: 0, FrameIdx: 0}, {VideoID: 0, FrameIdx: 1},
		{VideoID: 0, FrameIdx: 40}, {VideoID: 0, FrameIdx: 41},
	}
	got = SelectForRerank(clustered, 2)
	want := []FrameRef{{VideoID: 0, FrameIdx: 0}, {VideoID: 0, FrameIdx: 40}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diversity selection got %v, want %v", got, want)
	}
}

// TestDedupHitsEdgeCases covers the no-rerank dedup: empty input, a limit
// above the candidate set, exact-duplicate boxes collapsing, and all-ties
// scores preserving canonical order.
func TestDedupHitsEdgeCases(t *testing.T) {
	if got := DedupHits(nil, 5); len(got) != 0 {
		t.Fatalf("dedup of nothing = %v", got)
	}
	boxed := func(patch int64, score float32, frame int, x float64) ResultObject {
		o := hit(patch, score, 0, frame)
		o.Box.X, o.Box.Y, o.Box.W, o.Box.H = x, 0.1, 0.2, 0.2
		return o
	}
	distinct := []ResultObject{boxed(1, 0.9, 0, 0.1), boxed(2, 0.8, 1, 0.1), boxed(3, 0.7, 2, 0.1)}
	if got := DedupHits(distinct, 100); len(got) != 3 {
		t.Fatalf("limit above candidates must keep all: %v", got)
	}
	// The same frame and box twice (different patches) collapses to the
	// first — higher-scored — hit.
	dups := []ResultObject{boxed(1, 0.9, 0, 0.1), boxed(2, 0.8, 0, 0.1), boxed(3, 0.7, 1, 0.5)}
	got := DedupHits(dups, 100)
	if len(got) != 2 || got[0].PatchID != 1 || got[1].PatchID != 3 {
		t.Fatalf("duplicate boxes must collapse to the best hit: %v", got)
	}
	// All-ties input in canonical order stays in order after dedup.
	ties := []ResultObject{boxed(1, 0.5, 0, 0.1), boxed(2, 0.5, 1, 0.1), boxed(3, 0.5, 2, 0.1)}
	got = DedupHits(ties, 2)
	if len(got) != 2 || got[0].PatchID != 1 || got[1].PatchID != 2 {
		t.Fatalf("tied dedup must truncate canonically: %v", got)
	}
}
