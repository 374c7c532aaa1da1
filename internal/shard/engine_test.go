package shard

import (
	"bytes"
	"context"
	"reflect"
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

// TestPlannerConformanceOneShardMatchesSystem: one planning policy serves
// both deployment shapes, so on every index kind a core.System (planning
// from its own digest) and a one-shard engine (planning from that shard's
// exported digest) resolve a bound to the same executable plan with the
// same predicted recall.
func TestPlannerConformanceOneShardMatchesSystem(t *testing.T) {
	kinds := []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIMI, vectordb.IndexIVFPQ, vectordb.IndexHNSW}
	if testing.Short() {
		kinds = kinds[:2]
	}
	ds := datasets.QVHighlights(datasets.Config{Seed: 17, Scale: 0.05})
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: 17, Index: kind}
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
			for _, bound := range []float64{0.8, 0.9, 0.95} {
				for _, q := range ds.Queries {
					opts := core.QueryOptions{MinRecall: bound}
					want, err := single.PlanQueryCtx(context.Background(), q.Text, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.PlanQueryCtx(context.Background(), q.Text, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Key() != want.Key() || got.PredictedRecall != want.PredictedRecall || got.Kind != want.Kind {
						t.Errorf("%s at %v: engine plans %s (predicted %v), system plans %s (predicted %v)",
							q.ID, bound, got, got.PredictedRecall, want, want.PredictedRecall)
					}
				}
			}
		})
	}
}

// TestEnginePlannerRefetchesDigestsAfterSeal is the engine half of the
// planner staleness fix: a shard's background seal advances no ingest
// generation, so the engine must key its digest cache on the fleet's
// maintenance generation too — or it keeps planning from the ladder its
// shard measured while everything was still exact-scanned.
func TestEnginePlannerRefetchesDigestsAfterSeal(t *testing.T) {
	const bound = 0.9
	ds := datasets.QVHighlights(datasets.Config{Seed: 17, Scale: 0.05})
	eng, err := New(1, core.Config{Seed: 17, Streaming: true, SegmentSize: 1 << 20, PlannerValidateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Shard(0).BuildIndex(); err != nil { // boot empty and built, as a live-ingest worker does
		t.Fatal(err)
	}
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	opts := core.QueryOptions{MinRecall: bound}
	if _, err := eng.PlanQueryCtx(context.Background(), ds.Queries[0].Text, opts); err != nil {
		t.Fatal(err)
	}
	seg := eng.Shard(0).Segmented()
	if err := seg.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := seg.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries {
		plan, err := eng.PlanQueryCtx(context.Background(), q.Text, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := core.StageRecall(context.Background(), eng.Target(), q.Text, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rec < bound {
			t.Errorf("%s: measured recall %v below bound %v after the seal under plan %s", q.ID, rec, bound, plan)
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
// wider FastK, pinned int8, exhaustive — and pins bit-identity against
// lone QueryPlanned runs of the very same plans.
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
			opts.Int8 = true
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
		if lone[i], err = eng.QueryPlanned(t.Context(), text, plans[i], 0); err != nil {
			t.Fatal(err)
		}
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
	if _, err := core.Query(context.Background(), eng, "zorgon blaxt", core.QueryOptions{}); err == nil {
		t.Fatal("unparseable query must error")
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
