package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/vectordb"
)

// bootReplicated builds an ingested, indexed engine of n shards × r
// replicas over QVHighlights (the multi-clip corpus that populates every
// shard) plus the dataset for query texts.
func bootReplicated(t *testing.T, n, r int, cfg core.Config) (*Engine, *datasets.Dataset) {
	t.Helper()
	ds := datasets.QVHighlights(datasets.Config{Seed: cfg.Seed, Scale: 0.04})
	eng, err := NewReplicated(n, r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return eng, ds
}

// TestReplicatedMatchesUnreplicated is the replication determinism proof:
// an R=3 engine answers byte-identically to the R=1 engine on the same
// shards, dataset and seed, whichever replica the picker routes to.
func TestReplicatedMatchesUnreplicated(t *testing.T) {
	cfg := core.Config{Seed: 7, Index: vectordb.IndexFlat}
	base, ds := bootReplicated(t, 3, 1, cfg)
	repl, _ := bootReplicated(t, 3, 3, cfg)

	if got, want := repl.Entities(), base.Entities(); got != want {
		t.Fatalf("replicated entities = %d, base = %d", got, want)
	}
	if got, want := repl.Status().Ingest, base.Status().Ingest; got.Videos != want.Videos || got.Keyframes != want.Keyframes || got.Tokens != want.Tokens {
		t.Fatalf("replicated stats diverge: %+v vs %+v", got, want)
	}

	queries := ds.Queries
	if testing.Short() {
		queries = queries[:2]
	}
	for _, q := range queries {
		for _, opts := range []core.QueryOptions{
			{},
			{DisableRerank: true},
			{FastK: 40, TopN: 5},
		} {
			want, err := core.Query(context.Background(), base, q.Text, opts)
			if err != nil {
				t.Fatalf("%s base: %v", q.ID, err)
			}
			// Ask repeatedly so the round-robin picker cycles through
			// every replica of every group.
			for rep := 0; rep < 3; rep++ {
				got, err := core.Query(context.Background(), repl, q.Text, opts)
				if err != nil {
					t.Fatalf("%s replicated: %v", q.ID, err)
				}
				if !reflect.DeepEqual(got.Objects, want.Objects) {
					t.Fatalf("%s opts %+v rep %d: replicated objects diverge\n got: %+v\nwant: %+v",
						q.ID, opts, rep, got.Objects, want.Objects)
				}
				if got.CandidateFrames != want.CandidateFrames {
					t.Fatalf("%s: candidate frames %d != %d", q.ID, got.CandidateFrames, want.CandidateFrames)
				}
			}
		}
	}
}

// TestFailoverWithOneReplicaPerGroupDown kills all but one replica of every
// group and checks queries still answer, byte-identically to the healthy
// engine — the acceptance failover property.
func TestFailoverWithOneReplicaPerGroupDown(t *testing.T) {
	cfg := core.Config{Seed: 9}
	eng, ds := bootReplicated(t, 2, 3, cfg)

	var want []*core.Result
	for _, q := range ds.Queries {
		res, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Leave only one healthy replica per group — a different index in
	// each group, so routing can't cheat with a fixed replica.
	for gi := 0; gi < eng.Shards(); gi++ {
		for ri := 0; ri < eng.Replicas(); ri++ {
			if ri != gi%eng.Replicas() {
				eng.FailReplica(gi, ri)
			}
		}
	}
	for i, q := range ds.Queries {
		got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatalf("%s with failed replicas: %v", q.ID, err)
		}
		if !reflect.DeepEqual(got.Objects, want[i].Objects) {
			t.Fatalf("%s: degraded engine answers diverge", q.ID)
		}
	}

	// Kill the last replica of group 0: the engine can no longer answer.
	for ri := 0; ri < eng.Replicas(); ri++ {
		eng.FailReplica(0, ri)
	}
	if _, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{}); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("all-replicas-down query: got %v, want ErrAllReplicasDown", err)
	}

	// Revive one and service resumes with the same answer.
	eng.ReviveReplica(0, 1)
	got, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Objects, want[0].Objects) {
		t.Fatal("revived engine answers diverge")
	}
}

// TestErrorMarksReplicaUnhealthy injects a fault on one replica and checks
// the request transparently fails over, the faulty replica is removed from
// routing, and subsequent traffic never touches it.
func TestErrorMarksReplicaUnhealthy(t *testing.T) {
	eng, ds := bootReplicated(t, 2, 2, core.Config{Seed: 5})

	want, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	eng.faultHook = func(group, replica int) error {
		if group == 0 && replica == 0 {
			return fmt.Errorf("injected: replica lost")
		}
		return nil
	}
	// Drive enough queries that the picker would certainly have routed to
	// (0,0); every one must succeed via failover.
	for i := 0; i < 6; i++ {
		got, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{})
		if err != nil {
			t.Fatalf("query %d during fault: %v", i, err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("query %d: failover answer diverges", i)
		}
	}
	stats := eng.Status().ReplicaGroups
	if stats[0][0].Healthy {
		t.Fatal("faulty replica (0,0) must be marked unhealthy")
	}
	if !stats[0][1].Healthy || !stats[1][0].Healthy || !stats[1][1].Healthy {
		t.Fatalf("healthy replicas wrongly failed: %+v", stats)
	}

	// Once marked, the dead replica stops receiving reads.
	before := eng.Status().ReplicaGroups[0][0].Reads
	for i := 0; i < 4; i++ {
		if _, err := core.Query(context.Background(), eng, ds.Queries[1].Text, core.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if after := eng.Status().ReplicaGroups[0][0].Reads; after != before {
		t.Fatalf("failed replica still routed: reads %d -> %d", before, after)
	}
}

// TestGroupWideFaultDoesNotBrickGroup: a deterministic backend error
// reproduces on every byte-identical replica; it must surface per-request
// without leaving the whole group marked failed — otherwise one bad
// request converts into ErrAllReplicasDown forever.
func TestGroupWideFaultDoesNotBrickGroup(t *testing.T) {
	eng, ds := bootReplicated(t, 2, 2, core.Config{Seed: 5})
	eng.faultHook = func(group, replica int) error {
		if group == 0 {
			return fmt.Errorf("injected: deterministic fault on every replica")
		}
		return nil
	}
	if _, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{}); err == nil {
		t.Fatal("group-wide fault must surface as an error")
	}
	for ri, st := range eng.Status().ReplicaGroups[0] {
		if !st.Healthy {
			t.Fatalf("replica (0,%d) left bricked after a group-wide fault", ri)
		}
	}
	// Clearing the fault restores normal service without any revive call.
	eng.faultHook = nil
	if _, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{}); err != nil {
		t.Fatalf("group must answer again once the fault clears: %v", err)
	}
	// Manually-failed replicas are NOT resurrected by the error path.
	eng.FailReplica(0, 0)
	eng.FailReplica(0, 1)
	if _, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{}); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("manually downed group: got %v, want ErrAllReplicasDown", err)
	}
	if st := eng.Status().ReplicaGroups[0]; st[0].Healthy || st[1].Healthy {
		t.Fatal("manual kills must survive the per-request revive")
	}
}

// TestQueryFaultDoesNotFailover: an unanswerable query is the caller's
// problem on every replica — it must surface as an error without burning
// any replica's health.
func TestQueryFaultDoesNotFailover(t *testing.T) {
	eng, _ := bootReplicated(t, 2, 2, core.Config{Seed: 3})
	if _, err := core.Query(context.Background(), eng, "zorgon blaxt", core.QueryOptions{}); !errors.Is(err, core.ErrNoRecognisedTerms) {
		t.Fatalf("unparseable query: got %v", err)
	}
	for gi, g := range eng.Status().ReplicaGroups {
		for ri, st := range g {
			if !st.Healthy {
				t.Fatalf("replica (%d,%d) failed on a client error", gi, ri)
			}
		}
	}
}

// TestReplicaRoutingBalances: under sequential traffic the round-robin
// picker must spread reads across every replica of every group.
func TestReplicaRoutingBalances(t *testing.T) {
	eng, ds := bootReplicated(t, 2, 2, core.Config{Seed: 11})
	for i := 0; i < 8; i++ {
		if _, err := core.Query(context.Background(), eng, ds.Queries[i%len(ds.Queries)].Text, core.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for gi, g := range eng.Status().ReplicaGroups {
		for ri, st := range g {
			if st.Reads == 0 {
				t.Fatalf("replica (%d,%d) never served a read", gi, ri)
			}
			if st.Inflight != 0 {
				t.Fatalf("replica (%d,%d) leaked inflight count %d", gi, ri, st.Inflight)
			}
		}
	}
}

// TestReplicatedSnapshotRoundTrip: snapshots hold one copy per group, so a
// snapshot saved under R=1 restores into an R=2 engine (and vice versa)
// with every replica populated and answers unchanged.
func TestReplicatedSnapshotRoundTrip(t *testing.T) {
	cfg := core.Config{Seed: 21}
	orig, ds := bootReplicated(t, 2, 2, cfg)
	var buf bytes.Buffer
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	for _, r := range []int{1, 3} {
		restored, err := NewReplicated(2, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if restored.Entities() != orig.Entities() || !restored.Status().Built {
			t.Fatalf("R=%d restored engine: %d entities (want %d), built=%t",
				r, restored.Entities(), orig.Entities(), restored.Status().Built)
		}
		for _, q := range ds.Queries[:3] {
			want, err := core.Query(context.Background(), orig, q.Text, core.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Repeat so the picker touches every restored replica.
			for rep := 0; rep < r; rep++ {
				got, err := core.Query(context.Background(), restored, q.Text, core.QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Objects, want.Objects) {
					t.Fatalf("R=%d %s: restored answers diverge", r, q.ID)
				}
			}
		}
	}
}

func TestNewReplicatedRejectsZeroReplicas(t *testing.T) {
	if _, err := NewReplicated(2, 0, core.Config{}); err == nil {
		t.Fatal("zero replicas must error")
	}
}

// TestReplicatedConcurrentQueriesDuringIngest races queries, a replica
// kill, and ongoing ingest plus rebuilds across a replicated engine (run
// with -race).
func TestReplicatedConcurrentQueriesDuringIngest(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 9, Scale: 0.04})
	eng, err := NewReplicated(2, 2, core.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	half := (len(ds.Videos) + 1) / 2
	for i := 0; i < half; i++ {
		if err := eng.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := half; i < len(ds.Videos); i++ {
			if err := eng.Ingest(&ds.Videos[i]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := eng.BuildIndex(); err != nil {
			t.Error(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.FailReplica(0, 0)
		eng.ReviveReplica(0, 0)
	}()
	texts := queryMix(ds)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := core.Query(context.Background(), eng, texts[(c+i)%len(texts)], core.QueryOptions{Workers: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := eng.Status().Ingest
	if st.Videos != len(ds.Videos) {
		t.Fatalf("stats videos = %d want %d", st.Videos, len(ds.Videos))
	}
	// Every replica of every group saw the full fan-out.
	for gi := 0; gi < eng.Shards(); gi++ {
		want := eng.Replica(gi, 0).Entities()
		for ri := 1; ri < eng.Replicas(); ri++ {
			if got := eng.Replica(gi, ri).Entities(); got != want {
				t.Fatalf("group %d replica %d entities = %d, primary = %d", gi, ri, got, want)
			}
		}
	}
}
