package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/vectordb"
)

// queryMix returns the dataset's benchmark query texts.
func queryMix(ds *datasets.Dataset) []string {
	texts := make([]string, len(ds.Queries))
	for i, q := range ds.Queries {
		texts[i] = q.Text
	}
	return texts
}

// objectsOf strips timings so results compare on content only.
func objectsOf(results []*core.Result) [][]core.ResultObject {
	out := make([][]core.ResultObject, len(results))
	for i, r := range results {
		out[i] = r.Objects
	}
	return out
}

// TestShardedQueryMatchesSingleSystem is the scatter-gather determinism
// proof: a 4-shard engine under exact search returns byte-identical top-k
// (objects, scores, boxes, patch IDs — and the candidate-frame count) to
// the monolithic single-system path on the same dataset and seed. The flat
// index makes both sides' stage-1 top-fastK exact, so the only thing under
// test is the merge and routing logic itself.
func TestShardedQueryMatchesSingleSystem(t *testing.T) {
	const seed = 7
	cfg := core.Config{Seed: seed, Index: vectordb.IndexFlat}
	// QVHighlights generates 15 distinct clips, so all four shards own
	// videos — single-video corpora would leave three shards empty and
	// prove nothing about the merge.
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})

	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := single.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := single.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	eng, err := New(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	if got, want := eng.Entities(), single.Entities(); got != want {
		t.Fatalf("sharded entities = %d, single = %d", got, want)
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
			want, err := core.Query(context.Background(), single, q.Text, opts)
			if err != nil {
				t.Fatalf("%s single: %v", q.ID, err)
			}
			got, err := core.Query(context.Background(), eng, q.Text, opts)
			if err != nil {
				t.Fatalf("%s sharded: %v", q.ID, err)
			}
			if !reflect.DeepEqual(got.Objects, want.Objects) {
				t.Errorf("%s opts %+v: sharded objects diverge\n got: %+v\nwant: %+v",
					q.ID, opts, got.Objects, want.Objects)
			}
			if got.CandidateFrames != want.CandidateFrames {
				t.Errorf("%s opts %+v: candidate frames %d != %d",
					q.ID, opts, got.CandidateFrames, want.CandidateFrames)
			}
		}
	}
}

// TestOneShardMatchesSingleSystemDefaultIndex pins the N=1 guarantee on the
// default (approximate) IMI index: a one-shard engine is the single-system
// path, bit for bit, whatever the index kind.
func TestOneShardMatchesSingleSystemDefaultIndex(t *testing.T) {
	const seed = 11
	cfg := core.Config{Seed: seed}
	ds := datasets.Cityscapes(datasets.Config{Seed: seed, Scale: 0.04})

	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := single.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := single.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries
	if testing.Short() {
		queries = queries[:2]
	}
	for _, q := range queries {
		want, err := core.Query(context.Background(), single, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Errorf("%s: one-shard engine diverges from single system", q.ID)
		}
	}
}

// TestMoreShardsThanVideos exercises empty shards: BuildIndex must skip
// them and queries must still merge correctly.
func TestMoreShardsThanVideos(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 3, Scale: 0.05})
	n := len(ds.Videos) + 3
	eng, err := New(n, core.Config{Seed: 3, Index: vectordb.IndexFlat})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if !eng.Status().Built {
		t.Fatal("engine must report built")
	}
	res, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("no results from sparse engine")
	}
}

func TestQueryBatchMatchesLoneQueries(t *testing.T) {
	ds := datasets.ActivityNetQA(datasets.Config{Seed: 5, Scale: 0.04})
	eng, err := New(2, core.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	texts := queryMix(ds)
	batch, err := core.QueryBatch(context.Background(), eng, texts, core.QueryOptions{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	lone := make([]*core.Result, len(texts))
	for i, q := range texts {
		lone[i], err = core.Query(context.Background(), eng, q, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(objectsOf(batch), objectsOf(lone)) {
		t.Fatal("batch results diverge from lone queries")
	}
}

// TestQueryBatchPlannedMatchesLoneQueries drives the batched scatter path
// (one ScatterSearchBatch per backend, grouped stage-1 sweeps inside each
// shard) over a flat index with a deliberately mixed plan set — default,
// wider FastK, exhaustive — and pins bit-identity against batches of one
// running the very same plans.
func TestQueryBatchPlannedMatchesLoneQueries(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 11, Scale: 0.04})
	eng, err := New(3, core.Config{Seed: 11, Index: vectordb.IndexFlat})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	texts := queryMix(ds)
	if len(texts) > 6 {
		texts = texts[:6]
	}
	plans := make([]core.Plan, len(texts))
	for i, text := range texts {
		opts := core.QueryOptions{}
		switch i % 3 {
		case 1:
			opts.FastK = 24
		case 2:
			opts.Exhaustive = true
		}
		if plans[i], err = eng.PlanQueryCtx(context.Background(), text, opts); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := eng.QueryBatchPlanned(t.Context(), texts, plans, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	lone := make([]*core.Result, len(texts))
	for i, text := range texts {
		one, err := eng.QueryBatchPlanned(t.Context(), []string{text}, plans[i:i+1], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		lone[i] = one[0]
	}
	if !reflect.DeepEqual(objectsOf(batch), objectsOf(lone)) {
		t.Fatal("batched planned results diverge from lone queries")
	}
}

func TestUnknownTermsError(t *testing.T) {
	eng, err := New(2, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := datasets.Bellevue(datasets.Config{Seed: 1, Scale: 0.05})
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Query(context.Background(), eng, "zorgon blaxt", core.QueryOptions{}); !errors.Is(err, core.ErrNoRecognisedTerms) {
		t.Fatalf("unparseable query: got %v, want ErrNoRecognisedTerms", err)
	}
	// The query is the caller's problem: no shard is marked down for it.
	for i, bs := range eng.Status().Backends {
		if !bs.Healthy {
			t.Fatalf("shard %d unhealthy after a client error: %+v", i, bs)
		}
	}
}

// TestConcurrentQueriesDuringIngest races queries against ongoing ingest
// and rebuilds across shards (run with -race).
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 9, Scale: 0.04})
	eng, err := New(3, core.Config{Seed: 9})
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
	gen := eng.Status().Gen

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
	if eng.Status().Gen <= gen {
		t.Fatal("ingest generation must advance across ingest and rebuild")
	}
	st := eng.Status().Ingest
	if st.Videos != len(ds.Videos) {
		t.Fatalf("stats videos = %d want %d", st.Videos, len(ds.Videos))
	}
}

func TestNewRejectsZeroShards(t *testing.T) {
	if _, err := New(0, core.Config{}); err == nil {
		t.Fatal("zero shards must error")
	}
}

// TestNewReplicatedRejectsZeroReplicas: the deprecated constructor and
// NewLocal build one system per shard and refuse any other replica count.
func TestNewReplicatedRejectsZeroReplicas(t *testing.T) {
	for _, r := range []int{0, 2} {
		if _, err := NewReplicated(2, r, core.Config{}); err == nil {
			t.Fatalf("NewReplicated with %d replicas must error", r)
		}
		if _, err := NewLocal(r, core.Config{}); err == nil {
			t.Fatalf("NewLocal with %d replicas must error", r)
		}
	}
	eng, err := NewReplicated(2, 1, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 2 {
		t.Fatalf("NewReplicated(2, 1) built %d shards", eng.Shards())
	}
}

// TestEngineSnapshotRejectsHostileSegmentSize: a shard segment declaring
// 2^62 bytes in front of a 4-byte body is a clean error, not a buffer
// sized from the declaration.
func TestEngineSnapshotRejectsHostileSegmentSize(t *testing.T) {
	eng, err := New(2, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(snapMagic), 2, 0, 0, 0) // two shards
	snap = binary.LittleEndian.AppendUint64(snap, 1<<62)
	snap = append(snap, "tiny"...)
	if err := eng.LoadSnapshot(bytes.NewReader(snap)); err == nil {
		t.Fatal("a segment size past the stream's end must error")
	}
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	cfg := core.Config{Seed: 21}
	ds := datasets.ActivityNetQA(datasets.Config{Seed: 21, Scale: 0.04})
	orig, err := New(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := orig.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Mismatched shard count is rejected.
	mismatch, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mismatch.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shard-count mismatch must error")
	}
	// So is another index kind: the worker's refusal reaches the caller.
	hnswCfg := cfg
	hnswCfg.Index = vectordb.IndexHNSW
	otherKind, err := New(3, hnswCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := otherKind.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), `index kind "imi", system configured with "hnsw"`) {
		t.Fatalf("index-kind mismatch: %v", err)
	}

	restored, err := New(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Entities() != orig.Entities() || !restored.Status().Built {
		t.Fatalf("restored engine: %d entities (want %d), built=%t",
			restored.Entities(), orig.Entities(), restored.Status().Built)
	}
	for _, q := range ds.Queries[:3] {
		want, err := core.Query(context.Background(), orig, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Query(context.Background(), restored, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%s: restored engine answers diverge", q.ID)
		}
	}
}

// bootReplicated builds an ingested, indexed engine of n shards through
// the deprecated NewReplicated(n, 1, cfg) constructor that benchmark/
// calls, over QVHighlights (the multi-clip corpus that populates every
// shard).
func bootReplicated(t *testing.T, n int, cfg core.Config) (*Engine, *datasets.Dataset) {
	t.Helper()
	ds := datasets.QVHighlights(datasets.Config{Seed: cfg.Seed, Scale: 0.04})
	eng, err := NewReplicated(n, 1, cfg)
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

// TestQueryFaultDoesNotFailover: an unanswerable query is the caller's
// problem — it surfaces as ErrNoRecognisedTerms without marking any shard
// down or unbuilt, and the next query answers exactly as before it.
func TestQueryFaultDoesNotFailover(t *testing.T) {
	eng, ds := bootReplicated(t, 2, core.Config{Seed: 3})
	want, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Query(context.Background(), eng, "zorgon blaxt", core.QueryOptions{}); !errors.Is(err, core.ErrNoRecognisedTerms) {
		t.Fatalf("unparseable query: got %v", err)
	}
	st := eng.Status()
	if !st.Built {
		t.Fatal("engine reads unbuilt after a client error")
	}
	for i, bs := range st.Backends {
		if !bs.Healthy {
			t.Fatalf("shard %d failed on a client error: %+v", i, bs)
		}
	}
	got, err := core.Query(context.Background(), eng, ds.Queries[0].Text, core.QueryOptions{})
	if err != nil {
		t.Fatalf("query after a client error: %v", err)
	}
	if !reflect.DeepEqual(got.Objects, want.Objects) {
		t.Fatal("answers changed after a client error")
	}
}

// TestReplicatedSnapshotRoundTrip: snapshots hold one copy per shard, so
// one saved by an engine from the deprecated NewReplicated(n, 1) restores
// into an engine from New and back, with every shard populated and
// answers unchanged.
func TestReplicatedSnapshotRoundTrip(t *testing.T) {
	cfg := core.Config{Seed: 21}
	orig, ds := bootReplicated(t, 2, cfg)
	var buf bytes.Buffer
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	viaNew, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := viaNew.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("New restoring a NewReplicated snapshot: %v", err)
	}
	var again bytes.Buffer
	if err := viaNew.SaveSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	back, err := NewReplicated(2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.LoadSnapshot(bytes.NewReader(again.Bytes())); err != nil {
		t.Fatalf("NewReplicated restoring a New snapshot: %v", err)
	}

	for name, restored := range map[string]*Engine{"New": viaNew, "NewReplicated": back} {
		if restored.Entities() != orig.Entities() || !restored.Status().Built {
			t.Fatalf("%s restored engine: %d entities (want %d), built=%t",
				name, restored.Entities(), orig.Entities(), restored.Status().Built)
		}
		for i := 0; i < restored.Shards(); i++ {
			if restored.Backend(i).(*Local).System(0).Entities() == 0 {
				t.Fatalf("%s restored engine: shard %d is empty", name, i)
			}
		}
		for _, q := range ds.Queries[:3] {
			want, err := core.Query(context.Background(), orig, q.Text, core.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Query(context.Background(), restored, q.Text, core.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Objects, want.Objects) {
				t.Fatalf("%s %s: restored answers diverge", name, q.ID)
			}
		}
	}
}

// TestReplicatedConcurrentQueriesDuringIngest races queries and status
// reads against ongoing ingest plus a rebuild on an engine from the
// deprecated NewReplicated(n, 1) (run with -race), then checks every shard
// holds its slice and the engine answers like a twin built without the
// race.
func TestReplicatedConcurrentQueriesDuringIngest(t *testing.T) {
	cfg := core.Config{Seed: 9}
	ds := datasets.QVHighlights(datasets.Config{Seed: 9, Scale: 0.04})
	eng, err := NewReplicated(2, 1, cfg)
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
		for i := 0; i < 4; i++ {
			for j, bs := range eng.Status().Backends {
				if !bs.Healthy {
					t.Errorf("shard %d unhealthy during ingest: %+v", j, bs)
					return
				}
			}
			eng.Pushed()
		}
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
	if t.Failed() {
		return
	}
	st := eng.Status()
	if st.Ingest.Videos != len(ds.Videos) {
		t.Fatalf("stats videos = %d want %d", st.Ingest.Videos, len(ds.Videos))
	}
	sum := 0
	for i := 0; i < eng.Shards(); i++ {
		n := eng.Backend(i).(*Local).System(0).Entities()
		if n == 0 {
			t.Fatalf("shard %d holds no entities", i)
		}
		sum += n
	}
	if sum != st.Entities {
		t.Fatalf("shards hold %d entities, engine reports %d", sum, st.Entities)
	}

	twin, _ := bootReplicated(t, 2, cfg)
	for _, text := range texts[:3] {
		want, err := core.Query(context.Background(), twin, text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Query(context.Background(), eng, text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%q: engine built under the race answers unlike its twin", text)
		}
	}
}
