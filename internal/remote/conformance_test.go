package remote_test

// The conformance suite: an engine whose shards all live behind the RPC
// transport must answer byte-identically to the single-process paths. Two
// pins, in increasing strictness:
//
//  1. Remote engine vs in-process engine, same shard count, every index
//     kind, default (approximate) search: the per-shard systems are
//     byte-identical by construction, so any divergence is the transport's
//     fault — codec truncation, reordering, a dropped field.
//  2. Remote engine vs the monolithic core.System under exact search, every
//     index kind: exhaustive search makes each side's stage-1 top-fastK
//     exact, so the sharded merge must reproduce the monolithic answer bit
//     for bit — the acceptance criterion.

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

// indexKinds is every index family the conformance suite pins.
var indexKinds = []vectordb.IndexKind{
	vectordb.IndexFlat,
	vectordb.IndexIMI,
	vectordb.IndexIVFPQ,
	vectordb.IndexHNSW,
}

func conformanceKinds(t *testing.T) []vectordb.IndexKind {
	if testing.Short() {
		// Short mode keeps one exact and one approximate kind so the
		// transport is still exercised end to end within the CI budget.
		return []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIMI}
	}
	return indexKinds
}

// TestRemoteEngineMatchesSingleSystemExact is the acceptance pin: a 4-shard
// engine running entirely over the RPC transport returns byte-identical
// results to the single-process core.System across all four index kinds
// under exact search.
func TestRemoteEngineMatchesSingleSystemExact(t *testing.T) {
	const seed = 7
	// QVHighlights generates 15 distinct clips, so all four shards own
	// videos — single-video corpora would leave three shards empty and
	// prove nothing about the merge.
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	for _, kind := range conformanceKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: seed, Index: kind}
			single := singleSystem(t, cfg, ds)
			eng, _ := remoteEngine(t, 4, 1, cfg, remote.ClientOptions{})
			ingestAll(t, eng, ds)

			if got, want := eng.Entities(), single.Entities(); got != want {
				t.Fatalf("remote entities = %d, single = %d", got, want)
			}
			queries := ds.Queries
			if testing.Short() {
				queries = queries[:2]
			}
			for _, q := range queries {
				for _, opts := range []core.QueryOptions{
					{Exhaustive: true},
					{Exhaustive: true, DisableRerank: true},
					{Exhaustive: true, FastK: 40, TopN: 5},
				} {
					want, err := core.Query(context.Background(), single, q.Text, opts)
					if err != nil {
						t.Fatalf("%s single: %v", q.ID, err)
					}
					got, err := core.Query(context.Background(), eng, q.Text, opts)
					if err != nil {
						t.Fatalf("%s remote: %v", q.ID, err)
					}
					if !reflect.DeepEqual(got.Objects, want.Objects) {
						t.Errorf("%s opts %+v: remote objects diverge\n got: %+v\nwant: %+v",
							q.ID, opts, got.Objects, want.Objects)
					}
					if got.CandidateFrames != want.CandidateFrames {
						t.Errorf("%s opts %+v: candidate frames %d != %d",
							q.ID, opts, got.CandidateFrames, want.CandidateFrames)
					}
				}
			}
		})
	}
}

// TestRemoteEngineMatchesLocalEngine pins the transport itself: an
// in-process engine and a remote engine with the same shard count and
// config hold byte-identical per-shard systems, so even under approximate
// search (where the monolithic system legitimately differs) the two engines
// must agree bit for bit — on answers, candidate counts, aggregate stats
// and the ingest generation.
func TestRemoteEngineMatchesLocalEngine(t *testing.T) {
	const seed = 11
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	kinds := conformanceKinds(t)
	if testing.Short() {
		// The exact-search test already covers flat in short mode; here
		// the approximate default index is the interesting transport pin.
		kinds = []vectordb.IndexKind{vectordb.IndexIMI}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: seed, Index: kind}
			local, err := shard.New(4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, local, ds)
			eng, _ := remoteEngine(t, 4, 1, cfg, remote.ClientOptions{})
			ingestAll(t, eng, ds)

			if got, want := eng.Entities(), local.Entities(); got != want {
				t.Fatalf("entities: remote %d, local %d", got, want)
			}
			if got, want := eng.Status().Gen, local.Status().Gen; got != want {
				t.Fatalf("ingest gen: remote %d, local %d", got, want)
			}
			if got, want := eng.Status().Ingest, local.Status().Ingest; got.Videos != want.Videos ||
				got.Keyframes != want.Keyframes || got.Tokens != want.Tokens {
				t.Fatalf("stats diverge: remote %+v, local %+v", got, want)
			}
			queries := ds.Queries
			if testing.Short() {
				queries = queries[:2]
			}
			for _, q := range queries {
				want, err := core.Query(context.Background(), local, q.Text, core.QueryOptions{})
				if err != nil {
					t.Fatalf("%s local: %v", q.ID, err)
				}
				got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
				if err != nil {
					t.Fatalf("%s remote: %v", q.ID, err)
				}
				if !reflect.DeepEqual(got.Objects, want.Objects) {
					t.Errorf("%s: remote engine diverges from local engine", q.ID)
				}
				if got.CandidateFrames != want.CandidateFrames {
					t.Errorf("%s: candidate frames %d != %d", q.ID, got.CandidateFrames, want.CandidateFrames)
				}
			}
		})
	}
}

// TestRemoteReplicatedWorker runs R=2 replica groups behind the RPC
// boundary: worker-side failover (kill one replica of each worker) must be
// invisible to the coordinator — same bytes, no errors.
func TestRemoteReplicatedWorker(t *testing.T) {
	const seed = 5
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := remoteEngine(t, 2, 2, cfg, remote.ClientOptions{})
	ingestAll(t, eng, ds)

	queries := ds.Queries
	if testing.Short() {
		queries = queries[:3]
	}
	want := make([]*core.Result, len(queries))
	for i, q := range queries {
		res, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	stats := eng.Status().ReplicaGroups
	for gi, g := range stats {
		if len(g) != 2 {
			t.Fatalf("shard %d: %d replica stats over RPC, want 2", gi, len(g))
		}
	}
	// Kill replica 0 of every worker, worker-side — the coordinator's
	// FailReplica is in-process only; a real operator would signal the
	// worker. The pipe harness holds the worker's Local directly.
	for _, h := range hosts {
		h.local.Fail(0)
	}
	for i, q := range queries {
		got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatalf("%s with worker-side replica down: %v", q.ID, err)
		}
		if !reflect.DeepEqual(got.Objects, want[i].Objects) {
			t.Fatalf("%s: failover changed the answer", q.ID)
		}
	}
	st := eng.Status().ReplicaGroups
	for gi, g := range st {
		if g[0].Healthy {
			t.Fatalf("shard %d replica 0 should report unhealthy over RPC", gi)
		}
		if !g[1].Healthy {
			t.Fatalf("shard %d replica 1 should stay healthy", gi)
		}
	}
}
