package remote_test

// Plan conformance: the bit-identity guarantee of plans. A pinned plan —
// explicit stage-1 and stage-2 knobs, carried verbatim over the wire — must
// answer byte-identically on every deployment shape: the monolithic
// core.System, the in-process engine and the fully remote engine.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/shard"
)

// pinnedPlans are the explicit plans the conformance suite replays, chosen
// to cover exact and approximate stage 1, both index-effort knobs, and the
// no-rerank path.
var pinnedPlans = []core.Plan{
	{FastK: 40, NProbe: 2, Ef: 48, TopN: 5},
	{Exact: true, RerankFrames: 10},
	{SkipRerank: true, FastK: 24, NProbe: 4, Ef: 64},
	{FastK: 64, ShardK: 32, NProbe: 8, Ef: 96, RerankFrames: 16, TopN: 8},
}

// TestPinnedPlanByteIdentityAcrossShapes pins the tentpole guarantee on
// equal shard counts: a 4-shard in-process engine and a 4-shard remote
// engine answer every pinned plan byte for byte — any divergence is the
// executor's or the codec's — and a remote batch of every query answers
// what each query answers alone.
func TestPinnedPlanByteIdentityAcrossShapes(t *testing.T) {
	const seed = 23
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	kinds := conformanceKinds(t)
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: seed, Index: kind}
			local, err := shard.New(4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, local, ds)
			rem, _ := remoteEngine(t, 4, cfg, remote.ClientOptions{})
			ingestAll(t, rem, ds)

			queries := ds.Queries
			if testing.Short() {
				queries = queries[:2]
			}
			wants := make([][]*core.Result, len(pinnedPlans))
			for _, q := range queries {
				for pi, plan := range pinnedPlans {
					p := plan
					opts := core.QueryOptions{Plan: &p}
					want, err := core.Query(context.Background(), local, q.Text, opts)
					if err != nil {
						t.Fatalf("%s plan %d local: %v", q.ID, pi, err)
					}
					wants[pi] = append(wants[pi], want)
					got, err := core.Query(context.Background(), rem, q.Text, opts)
					if err != nil {
						t.Fatalf("%s plan %d remote: %v", q.ID, pi, err)
					}
					if !reflect.DeepEqual(got.Objects, want.Objects) {
						t.Errorf("%s plan %d: remote engine diverges from local\n got: %+v\nwant: %+v",
							q.ID, pi, got.Objects, want.Objects)
					}
					if got.CandidateFrames != want.CandidateFrames {
						t.Errorf("%s plan %d: remote candidate frames %d != %d",
							q.ID, pi, got.CandidateFrames, want.CandidateFrames)
					}
				}
			}
			texts := make([]string, len(queries))
			for i, q := range queries {
				texts[i] = q.Text
			}
			for pi, plan := range pinnedPlans {
				p := plan
				got, err := core.QueryBatch(context.Background(), rem, texts, core.QueryOptions{Plan: &p}, 0)
				if err != nil {
					t.Fatalf("plan %d remote batch: %v", pi, err)
				}
				for i, want := range wants[pi] {
					if !reflect.DeepEqual(got[i].Objects, want.Objects) || got[i].CandidateFrames != want.CandidateFrames {
						t.Errorf("%s plan %d: remote batch answer diverges from the lone local answer", queries[i].ID, pi)
					}
				}
			}
		})
	}
}

// TestPinnedExactPlanMatchesMonolith extends the acceptance pin to plans:
// under an exact pinned plan, the 4-shard remote engine must reproduce the
// monolithic core.System bit for bit — exhaustive stage 1 makes the merge
// exact, so sharding cannot show through.
func TestPinnedExactPlanMatchesMonolith(t *testing.T) {
	const seed = 23
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	for _, kind := range conformanceKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: seed, Index: kind}
			single := singleSystem(t, cfg, ds)
			rem, _ := remoteEngine(t, 4, cfg, remote.ClientOptions{})
			ingestAll(t, rem, ds)

			queries := ds.Queries
			if testing.Short() {
				queries = queries[:2]
			}
			for _, q := range queries {
				for _, plan := range []core.Plan{
					{Exact: true},
					{Exact: true, FastK: 48, TopN: 6},
					{Exact: true, SkipRerank: true, FastK: 32},
				} {
					p := plan
					opts := core.QueryOptions{Plan: &p}
					want, err := core.Query(context.Background(), single, q.Text, opts)
					if err != nil {
						t.Fatalf("%s single: %v", q.ID, err)
					}
					got, err := core.Query(context.Background(), rem, q.Text, opts)
					if err != nil {
						t.Fatalf("%s remote: %v", q.ID, err)
					}
					if !reflect.DeepEqual(got.Objects, want.Objects) {
						t.Errorf("%s plan %+v: remote engine diverges from monolith", q.ID, plan)
					}
				}
			}
		})
	}
}
