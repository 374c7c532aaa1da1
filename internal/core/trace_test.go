package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
)

func tracedSystem(t testing.TB) (*System, *datasets.Dataset) {
	t.Helper()
	ds := datasets.QVHighlights(datasets.Config{Seed: 3, Scale: 0.04})
	sys, err := New(Config{Seed: 3})
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

// TestTracingDoesNotChangeAnswer pins bit-identity at the core layer: the
// same query traced and untraced returns identical objects and candidate
// counts — the spans only watch.
func TestTracingDoesNotChangeAnswer(t *testing.T) {
	sys, ds := tracedSystem(t)
	for _, q := range ds.Queries[:4] {
		want, err := Query(context.Background(), sys, q.Text, QueryOptions{})
		if err != nil {
			t.Fatalf("%s untraced: %v", q.ID, err)
		}
		tr := obs.NewTrace(obs.NewID())
		root := tr.Root("query")
		got, err := Query(obs.With(context.Background(), root), sys, q.Text, QueryOptions{})
		root.End()
		if err != nil {
			t.Fatalf("%s traced: %v", q.ID, err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) || got.CandidateFrames != want.CandidateFrames {
			t.Fatalf("%s: tracing changed the answer", q.ID)
		}
		if len(tr.Export()) < 4 {
			t.Fatalf("%s: traced query recorded only %d spans", q.ID, len(tr.Export()))
		}
	}
}

// BenchmarkQueryTracingOff measures the full query hot path with tracing
// disabled — the default every caller pays; compare against
// BenchmarkQueryTracingOn for the opt-in overhead (the README quotes the
// pair).
func BenchmarkQueryTracingOff(b *testing.B) {
	sys, ds := tracedSystem(b)
	text := ds.Queries[0].Text
	plan, err := sys.PlanQueryCtx(context.Background(), text, QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.QueryBatchPlanned(ctx, []string{text}, []Plan{plan}, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTracingOn is the same query with a live trace on the
// context, a fresh trace per iteration as the serving tier would do.
func BenchmarkQueryTracingOn(b *testing.B) {
	sys, ds := tracedSystem(b)
	text := ds.Queries[0].Text
	plan, err := sys.PlanQueryCtx(context.Background(), text, QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace(1)
		root := tr.Root("query")
		if _, err := sys.QueryBatchPlanned(obs.With(context.Background(), root), []string{text}, []Plan{plan}, 1, 0); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}
