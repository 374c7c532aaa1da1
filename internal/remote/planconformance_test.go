package remote_test

// Plan conformance: the planner tentpole's bit-identity guarantee. A pinned
// plan — explicit stage-1 and stage-2 knobs, carried verbatim over the wire
// — must answer byte-identically on every deployment shape: the monolithic
// core.System, the in-process engine, the replicated engine, and the fully
// remote engine. And a MinRecall-bounded query planned by a coordinator
// whose shards are all behind RPC must still meet its bound, because the
// engine plans from the same PlanStats digests the workers export.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/vectordb"
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
// equal shard counts: a 4-shard in-process engine, a 4-shard remote engine,
// and a 4-shard remote engine with replicated workers answer every pinned
// plan byte for byte — any divergence is the executor's or the codec's —
// and a remote batch of every query answers what each query answers alone.
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
			rem, _ := remoteEngine(t, 4, 1, cfg, remote.ClientOptions{})
			ingestAll(t, rem, ds)
			repl, _ := remoteEngine(t, 4, 2, cfg, remote.ClientOptions{})
			ingestAll(t, repl, ds)

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
					for name, eng := range map[string]*shard.Engine{"remote": rem, "replicated": repl} {
						got, err := core.Query(context.Background(), eng, q.Text, opts)
						if err != nil {
							t.Fatalf("%s plan %d %s: %v", q.ID, pi, name, err)
						}
						if !reflect.DeepEqual(got.Objects, want.Objects) {
							t.Errorf("%s plan %d: %s engine diverges from local\n got: %+v\nwant: %+v",
								q.ID, pi, name, got.Objects, want.Objects)
						}
						if got.CandidateFrames != want.CandidateFrames {
							t.Errorf("%s plan %d: %s candidate frames %d != %d",
								q.ID, pi, name, got.CandidateFrames, want.CandidateFrames)
						}
					}
				}
			}
			texts := make([]string, len(queries))
			for i, q := range queries {
				texts[i] = q.Text
			}
			for pi, plan := range pinnedPlans {
				p := plan
				for name, eng := range map[string]*shard.Engine{"remote": rem, "replicated": repl} {
					got, err := core.QueryBatch(context.Background(), eng, texts, core.QueryOptions{Plan: &p}, 0)
					if err != nil {
						t.Fatalf("plan %d %s batch: %v", pi, name, err)
					}
					for i, want := range wants[pi] {
						if !reflect.DeepEqual(got[i].Objects, want.Objects) || got[i].CandidateFrames != want.CandidateFrames {
							t.Errorf("%s plan %d: %s batch answer diverges from the lone local answer", queries[i].ID, pi, name)
						}
					}
				}
			}
		})
	}
}

// TestRemoteInt8PlansMatchInProcess pins the int8 knobs across the wire on
// the two index kinds that have an int8 path: a coordinator planning from
// remote workers' digests picks the same bounded plan (Plan.Key, int8 bit
// included) as an in-process engine, and a pinned int8 plan answers the
// same bytes on both.
func TestRemoteInt8PlansMatchInProcess(t *testing.T) {
	const seed, bound = 31, 0.9
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	for _, kind := range []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIVFPQ} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: seed, Index: kind}
			local, err := shard.New(3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, local, ds)
			rem, _ := remoteEngine(t, 3, 1, cfg, remote.ClientOptions{})
			ingestAll(t, rem, ds)

			int8Plans := 0
			for _, q := range ds.Queries {
				opts := core.QueryOptions{MinRecall: bound}
				want, err := local.PlanQueryCtx(context.Background(), q.Text, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rem.PlanQueryCtx(context.Background(), q.Text, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Key() != want.Key() {
					t.Errorf("%s: remote coordinator plans %s, in-process engine %s", q.ID, got.Key(), want.Key())
				}
				if want.Int8 {
					int8Plans++
				}

				pinned := core.Plan{FastK: 40, NProbe: 4, Int8: true}
				popts := core.QueryOptions{Plan: &pinned}
				wantRes, err := core.Query(context.Background(), local, q.Text, popts)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := core.Query(context.Background(), rem, q.Text, popts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRes.Objects, wantRes.Objects) || gotRes.CandidateFrames != wantRes.CandidateFrames {
					t.Errorf("%s: pinned int8 plan answers differently over the wire", q.ID)
				}
			}
			t.Logf("%s: %d of %d bounded plans chose int8", kind, int8Plans, len(ds.Queries))
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
			rem, _ := remoteEngine(t, 4, 1, cfg, remote.ClientOptions{})
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

// TestRemoteBoundedPlanMeetsRecall: a coordinator whose shards all live
// behind RPC plans a MinRecall-bounded query from worker-exported PlanStats
// digests (the opPlanStats round-trip), and the chosen plan's measured
// stage-1 recall against the engine's exact scatter must meet the bound.
func TestRemoteBoundedPlanMeetsRecall(t *testing.T) {
	const seed, bound = 29, 0.9
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	kinds := conformanceKinds(t)
	if testing.Short() {
		kinds = []vectordb.IndexKind{vectordb.IndexIMI}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: seed, Index: kind}
			rem, _ := remoteEngine(t, 3, 1, cfg, remote.ClientOptions{})
			ingestAll(t, rem, ds)

			queries := ds.Queries
			if len(queries) > 4 {
				queries = queries[:4]
			}
			for _, q := range queries {
				plan, err := rem.PlanQueryCtx(context.Background(), q.Text, core.QueryOptions{MinRecall: bound})
				if err != nil {
					t.Fatalf("%s: plan over RPC: %v", q.ID, err)
				}
				if plan.Kind != core.PlanAdaptive && plan.Kind != core.PlanAdaptiveExact {
					t.Fatalf("%s: bounded plan has kind %q", q.ID, plan.Kind)
				}
				rec, err := core.StageRecall(context.Background(), rem.Target(), q.Text, plan)
				if err != nil {
					t.Fatalf("%s: measuring recall over RPC: %v", q.ID, err)
				}
				if rec < bound {
					t.Errorf("%s: measured recall %v below bound %v under plan %s", q.ID, rec, bound, plan)
				}
				// The bounded query must execute cleanly end to end.
				if _, err := core.Query(context.Background(), rem, q.Text, core.QueryOptions{MinRecall: bound}); err != nil {
					t.Fatalf("%s: bounded query: %v", q.ID, err)
				}
			}
		})
	}
}
