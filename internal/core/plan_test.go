package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/vectordb"
)

// qvSystem is a small built QVHighlights system on one index kind.
func qvSystem(t *testing.T, kind vectordb.IndexKind) (*System, *datasets.Dataset) {
	t.Helper()
	return qvSystemCfg(t, Config{Seed: 17, Index: kind})
}

// qvSystemCfg is qvSystem under an arbitrary configuration.
func qvSystemCfg(t *testing.T, cfg Config) (*System, *datasets.Dataset) {
	t.Helper()
	ds := datasets.QVHighlights(datasets.Config{Seed: 17, Scale: 0.05})
	sys, err := New(cfg)
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

// TestDefaultPlanMatchesFixedKnobs pins the default: PlanQueryCtx without a
// pin resolves to the fixed plan — the Config knobs with the options'
// overrides — and executing it answers byte-identically to Query.
func TestDefaultPlanMatchesFixedKnobs(t *testing.T) {
	sys, ds := qvSystem(t, vectordb.IndexIMI)
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
		got, err := sys.QueryBatchPlanned(context.Background(), []string{text}, []Plan{plan}, opts.Workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0].Objects, want.Objects) {
			t.Fatalf("opts %+v: plan execution diverges from Query", opts)
		}
	}
}

// TestPlanKeyMatchesSprintf pins Key's bytes to the fmt.Sprintf form it
// replaced: the server's cache and flight keys are built on them, so a
// drift would split one answer's entries.
func TestPlanKeyMatchesSprintf(t *testing.T) {
	const maxInt, minInt = int(^uint(0) >> 1), -int(^uint(0)>>1) - 1
	for _, p := range []Plan{
		{},
		{Kind: PlanFixed, FastK: 100, ShardK: 100, NProbe: 8, Ef: 64, RerankFrames: 32, TopN: 10},
		{Kind: PlanPinned, Exact: true, FastK: 1, ShardK: 2, RerankFrames: 3, TopN: 4, SkipRerank: true},
		{Exact: true, SkipRerank: false, FastK: -1, ShardK: -42, NProbe: -7, Ef: -1, RerankFrames: -3, TopN: -9},
		{Exact: false, SkipRerank: true, FastK: maxInt, ShardK: minInt, NProbe: maxInt, Ef: minInt, RerankFrames: maxInt, TopN: minInt},
	} {
		want := fmt.Sprintf("x=%t k=%d sk=%d np=%d ef=%d rr=%d n=%d sr=%t",
			p.Exact, p.FastK, p.ShardK, p.NProbe, p.Ef, p.RerankFrames, p.TopN, p.SkipRerank)
		if got := p.Key(); got != want {
			t.Errorf("Key(%+v) = %q, want %q", p, got, want)
		}
		if got := string(p.AppendKey([]byte("text\x00"))); got != "text\x00"+want {
			t.Errorf("AppendKey(%+v) = %q, want the prefix kept and %q after it", p, got, want)
		}
	}
}
