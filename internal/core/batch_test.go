package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/vectordb"
)

// batchPlans builds a deliberately heterogeneous plan set: default, mixed
// FastK and exhaustive plans, so the batch groups into several distinct
// search shapes rather than one.
func batchPlans(sys *System, texts []string) []Plan {
	plans := make([]Plan, len(texts))
	for i := range texts {
		opts := QueryOptions{}
		switch i % 4 {
		case 1:
			opts.FastK = 24
		case 2, 3:
			opts.Exhaustive = true
		}
		plans[i] = sys.cfg.FixedPlan(opts)
	}
	return plans
}

// TestQueryBatchPlannedMatchesLoneQueries is the batch-path pin: batched
// execution — one grouped memory sweep per distinct search shape — must
// answer bit-identically to running every plan as a batch of one, on every
// index kind: approximate plans through flat's row sweep or
// the other kinds' per-query index search, exhaustive plans through the one
// row sweep every kind shares — whose answers must also equal flat's, the
// oracle, bit for bit. The segmented case runs the same batches across
// several sealed segments and a growing one.
func TestQueryBatchPlannedMatchesLoneQueries(t *testing.T) {
	oracle := map[string][]ResultObject{} // flat's exhaustive answers by text
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Seed: 17, Index: vectordb.IndexFlat}},
		{"imi", Config{Seed: 17, Index: vectordb.IndexIMI}},
		{"ivfpq", Config{Seed: 17, Index: vectordb.IndexIVFPQ}},
		{"hnsw", Config{Seed: 17, Index: vectordb.IndexHNSW}},
		{"segmented-imi", Config{Seed: 17, Index: vectordb.IndexIMI, SegmentSize: 700}},
	}
	for _, tc := range cases {
		kind := tc.cfg.Index
		t.Run(tc.name, func(t *testing.T) {
			sys, ds := qvSystemCfg(t, tc.cfg)
			if tc.cfg.SegmentSize > 0 {
				if st, _ := sys.SegmentStats(); st.Sealed < 2 {
					t.Fatalf("segmented case needs several sealed segments, got %+v", st)
				}
			}
			var texts []string
			for _, q := range ds.Queries {
				texts = append(texts, q.Text)
				if len(texts) == 6 {
					break
				}
			}
			plans := batchPlans(sys, texts)
			batch, err := sys.QueryBatchPlanned(context.Background(), texts, plans, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, text := range texts {
				lone, err := sys.QueryBatchPlanned(context.Background(), []string{text}, plans[i:i+1], 0, 0)
				if err != nil {
					t.Fatalf("%q: %v", text, err)
				}
				if !reflect.DeepEqual(batch[i].Objects, lone[0].Objects) {
					t.Errorf("%q under plan %s: batch answers diverge from a batch of one", text, plans[i])
				}
				if !plans[i].Exact {
					continue
				}
				if kind == vectordb.IndexFlat {
					oracle[text] = batch[i].Objects
				} else if want, ok := oracle[text]; ok && !reflect.DeepEqual(batch[i].Objects, want) {
					t.Errorf("%q: exhaustive %s batch answers diverge from flat's", text, kind)
				}
			}
			// Plan-then-execute on top: QueryBatch plans each query and
			// runs the same batch executor, so it must equal lone Query
			// calls under the fixed options.
			for _, opts := range []QueryOptions{{}, {DisableRerank: true, FastK: 24}} {
				batch, err := QueryBatch(context.Background(), sys, texts, opts, 4)
				if err != nil {
					t.Fatal(err)
				}
				for i, text := range texts {
					lone, err := Query(context.Background(), sys, text, opts)
					if err != nil {
						t.Fatalf("%q: %v", text, err)
					}
					if !reflect.DeepEqual(batch[i].Objects, lone.Objects) {
						t.Errorf("%q under %+v: QueryBatch diverges from lone Query", text, opts)
					}
				}
			}
		})
	}
}

// TestSearchPlannedBatchGroups pins the stage-1 grouping layer directly:
// every query's FastHits from one batched call must carry the same objects
// as its own SearchPlanned call, across a plan set that spans several
// (k, params) groups.
func TestSearchPlannedBatchGroups(t *testing.T) {
	sys, ds := qvSystem(t, vectordb.IndexFlat)
	var texts []string
	for _, q := range ds.Queries {
		texts = append(texts, q.Text)
		if len(texts) == 5 {
			break
		}
	}
	plans := batchPlans(sys, texts)
	batched, err := sys.SearchPlannedBatch(context.Background(), texts, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(texts) {
		t.Fatalf("batch returned %d results for %d queries", len(batched), len(texts))
	}
	for i, text := range texts {
		lone, err := sys.SearchPlanned(context.Background(), text, plans[i])
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if !reflect.DeepEqual(batched[i].Objects, lone.Objects) {
			t.Errorf("%q under plan %s: batched stage-1 hits diverge", text, plans[i])
		}
	}
}

// TestSearchPlannedBatchRejectsUnknownTerms: a batch containing one
// unencodable query fails whole with the query identified, exactly like
// the lone path.
func TestSearchPlannedBatchRejectsUnknownTerms(t *testing.T) {
	sys, ds := qvSystem(t, vectordb.IndexFlat)
	texts := []string{ds.Queries[0].Text, "zzz qqq xyzzy"}
	plans := []Plan{sys.cfg.FixedPlan(QueryOptions{}), sys.cfg.FixedPlan(QueryOptions{})}
	if _, err := sys.SearchPlannedBatch(context.Background(), texts, plans); err == nil {
		t.Fatal("batch with an unencodable query must fail")
	}
}

// widthTarget is a PlanTarget that answers every stage-1 leg with one hit
// and records the rerank width each stage-2 call is handed.
type widthTarget struct {
	mu      sync.Mutex
	workers []int
}

func (t *widthTarget) ScatterSearchBatch(_ context.Context, texts []string, _ []Plan) ([][][]ResultObject, error) {
	out := make([][][]ResultObject, len(texts))
	for i := range out {
		out[i] = [][]ResultObject{{{VideoID: 1, FrameIdx: 2, Score: 1, PatchID: 7}}}
	}
	return out, nil
}

func (t *widthTarget) ScatterGround(_ context.Context, _ string, refs []FrameRef, workers int) ([]Grounding, error) {
	t.mu.Lock()
	t.workers = append(t.workers, workers)
	t.mu.Unlock()
	return make([]Grounding, len(refs)), nil
}

// TestBatchOfOneKeepsFullRerankWidth: the client pool never outnumbers the
// batch, so a batch of one keeps its full-width rerank (workers 0 inherits
// Config.Workers) instead of being narrowed to a serial one as if other
// queries of its batch already filled the cores; a real batch still runs
// each query's stage 2 serially.
func TestBatchOfOneKeepsFullRerankWidth(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 4}.Resolved()
	plan := cfg.FixedPlan(QueryOptions{})
	for _, tc := range []struct {
		texts []string
		want  int
	}{
		{[]string{"a car"}, 0},
		{[]string{"a car", "a bus"}, 1},
	} {
		tgt := &widthTarget{}
		plans := make([]Plan, len(tc.texts))
		for i := range plans {
			plans[i] = plan
		}
		if _, err := ExecutePlanBatch(context.Background(), tgt, cfg, tc.texts, plans, 0, 0); err != nil {
			t.Fatal(err)
		}
		for _, w := range tgt.workers {
			if w != tc.want {
				t.Fatalf("batch of %d: stage 2 ran with workers %v, want %d each", len(tc.texts), tgt.workers, tc.want)
			}
		}
		if len(tgt.workers) != len(tc.texts) {
			t.Fatalf("batch of %d: %d stage-2 calls", len(tc.texts), len(tgt.workers))
		}
	}
}
