package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/vectordb"
)

// batchPlans builds a deliberately heterogeneous plan set: mixed FastK,
// exhaustive, and (on int8-capable kinds) pinned int8 plans, so the batch
// groups into several distinct search shapes rather than one.
func batchPlans(sys *System, texts []string, kind vectordb.IndexKind) []Plan {
	plans := make([]Plan, len(texts))
	for i := range texts {
		opts := QueryOptions{}
		switch i % 4 {
		case 1:
			opts.FastK = 24
		case 2:
			if kind == vectordb.IndexFlat || kind == vectordb.IndexIVFPQ {
				opts.Int8 = true
			} else {
				opts.Exhaustive = true
			}
		case 3:
			opts.Exhaustive = true
		}
		plans[i] = sys.cfg.FixedPlan(opts)
	}
	return plans
}

// TestQueryBatchPlannedMatchesLoneQueries is the batch-path pin: batched
// execution — one grouped memory sweep per distinct search shape — must
// answer bit-identically to running every plan through QueryPlanned on its
// own, on every index kind: approximate plans through flat's batch scan or
// the other kinds' per-query fallback, exhaustive plans through the one
// row sweep every kind shares — whose answers must also equal flat's, the
// oracle, bit for bit.
func TestQueryBatchPlannedMatchesLoneQueries(t *testing.T) {
	oracle := map[string][]ResultObject{} // flat's exhaustive answers by text
	for _, kind := range []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIMI, vectordb.IndexIVFPQ, vectordb.IndexHNSW} {
		t.Run(string(kind), func(t *testing.T) {
			sys, ds := plannerSystem(t, kind)
			var texts []string
			for _, q := range ds.Queries {
				texts = append(texts, q.Text)
				if len(texts) == 6 {
					break
				}
			}
			plans := batchPlans(sys, texts, kind)
			batch, err := sys.QueryBatchPlanned(context.Background(), texts, plans, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, text := range texts {
				lone, err := sys.QueryPlanned(context.Background(), text, plans[i], 0)
				if err != nil {
					t.Fatalf("%q: %v", text, err)
				}
				if !reflect.DeepEqual(batch[i].Objects, lone.Objects) {
					t.Errorf("%q under plan %s: batch answers diverge from lone QueryPlanned", text, plans[i])
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
			// calls under fixed and planner-resolved options alike.
			for _, opts := range []QueryOptions{{}, {MinRecall: 0.9}, {DisableRerank: true, FastK: 24}} {
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
	sys, ds := plannerSystem(t, vectordb.IndexFlat)
	var texts []string
	for _, q := range ds.Queries {
		texts = append(texts, q.Text)
		if len(texts) == 5 {
			break
		}
	}
	plans := batchPlans(sys, texts, vectordb.IndexFlat)
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
	sys, ds := plannerSystem(t, vectordb.IndexFlat)
	texts := []string{ds.Queries[0].Text, "zzz qqq xyzzy"}
	plans := []Plan{sys.cfg.FixedPlan(QueryOptions{}), sys.cfg.FixedPlan(QueryOptions{})}
	if _, err := sys.SearchPlannedBatch(context.Background(), texts, plans); err == nil {
		t.Fatal("batch with an unencodable query must fail")
	}
}

// TestPlannerInt8RecallGate pins the int8 rungs' contract on the
// int8-capable kinds: calibration must measure int8 rungs, an int8 rung
// chosen for a bounded query must deliver measured stage-1 recall at or
// above the bound, and escalation to exact always drops the int8 scorer.
func TestPlannerInt8RecallGate(t *testing.T) {
	kinds := []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIVFPQ}
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			sys, ds := plannerSystem(t, kind)
			st := sys.PlanStats()
			var int8Rungs int
			for _, r := range st.Rungs {
				if r.Int8 {
					int8Rungs++
				}
			}
			if int8Rungs == 0 {
				t.Fatalf("%s ladder has no int8 rungs: %+v", kind, st.Rungs)
			}

			const bound = 0.5
			var picked bool
			for _, q := range ds.Queries[:4] {
				plan, err := sys.PlanQueryCtx(context.Background(), q.Text, QueryOptions{MinRecall: bound})
				if err != nil {
					t.Fatalf("%s: plan: %v", q.ID, err)
				}
				if !plan.Int8 {
					continue
				}
				picked = true
				rec, err := StageRecall(context.Background(), sys.Target(), q.Text, plan)
				if err != nil {
					t.Fatalf("%s: measuring recall: %v", q.ID, err)
				}
				if rec < bound {
					t.Errorf("%s: int8 plan %s measured recall %v below bound %v", q.ID, plan, rec, bound)
				}
			}
			if !picked {
				// The ladder carries int8 rungs but calibration measured them
				// under the loose bound — that means the quantizer underbid
				// on this corpus, which the gate exists to allow; log it so a
				// regression to "never viable" is visible.
				t.Logf("%s: no bounded query picked an int8 rung", kind)
			}

			// MinRecall=1 escalates to exact, which never scores int8 — even
			// when the caller pinned it.
			plan, err := sys.PlanQueryCtx(context.Background(), ds.Queries[0].Text, QueryOptions{MinRecall: 1, Int8: true})
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Exact || plan.Int8 {
				t.Fatalf("MinRecall=1 must plan exact float search, got %s", plan)
			}
		})
	}
}

// TestPinnedInt8PlanExecutes: QueryOptions.Int8 without a bound pins the
// fixed plan's int8 variant, and executing it returns exactly re-scored
// (finite, descending) results.
func TestPinnedInt8PlanExecutes(t *testing.T) {
	sys, ds := plannerSystem(t, vectordb.IndexFlat)
	plan, err := sys.PlanQueryCtx(context.Background(), ds.Queries[0].Text, QueryOptions{Int8: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Int8 {
		t.Fatalf("pinned int8 options must yield an int8 plan, got %s", plan)
	}
	res, err := sys.QueryPlanned(context.Background(), ds.Queries[0].Text, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("int8 plan returned no objects")
	}
	for i := 1; i < len(res.Objects); i++ {
		if res.Objects[i].Score > res.Objects[i-1].Score {
			t.Fatalf("int8 results not score-sorted at %d", i)
		}
	}
}
