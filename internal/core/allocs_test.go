//go:build !race

// The race detector makes sync.Pool drop items at random, so pooled paths
// allocate under it and allocation bounds only hold without it.

package core

import (
	"context"
	"testing"

	"repro/internal/vectordb"
)

// TestSearchPlannedBatchAllocs bounds stage 1's garbage: an exhaustive
// batch of 8 is one pooled sweep and one copy-free metadata join, so its
// allocations stay a small constant per query rather than one per hit.
func TestSearchPlannedBatchAllocs(t *testing.T) {
	sys, ds := qvSystemCfg(t, Config{Seed: 17, Index: vectordb.IndexIMI})
	texts := make([]string, 8)
	plans := make([]Plan, len(texts))
	for i := range texts {
		texts[i] = ds.Queries[i%len(ds.Queries)].Text
		plans[i] = sys.cfg.FixedPlan(QueryOptions{Exhaustive: true})
	}
	ctx := context.Background()
	run := func() {
		fhs, err := sys.SearchPlannedBatch(ctx, texts, plans)
		if err != nil {
			t.Fatal(err)
		}
		if len(fhs[0].Objects) < plans[0].ShardK/2 {
			t.Fatalf("%d hits for depth %d", len(fhs[0].Objects), plans[0].ShardK)
		}
	}
	run() // warm the pools
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("exhaustive SearchPlannedBatch of %d: %v allocations (depth %d)", len(texts), allocs, plans[0].ShardK)
	if allocs > 200 {
		t.Fatalf("exhaustive SearchPlannedBatch of %d made %v allocations, want at most 200", len(texts), allocs)
	}
}

// TestNoRerankTailAllocs bounds the executor's tail after stage 1 on a
// no-rerank batch of 8 over two legs of 100 hits: per query one merge, a
// frame table, its two chain arrays and the append-grown answer the
// result cache keeps (109 allocations on amd64).
func TestNoRerankTailAllocs(t *testing.T) {
	target, texts, plans := noRerankTail()
	ctx := context.Background()
	run := func() {
		res, err := ExecutePlanBatch(ctx, target, Config{}, texts, plans, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0].Objects) == 0 || res[0].CandidateFrames == 0 {
			t.Fatalf("empty answer: %d objects over %d frames", len(res[0].Objects), res[0].CandidateFrames)
		}
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("no-rerank tail, batch of %d over 2 legs: %v allocations", len(texts), allocs)
	if allocs > 120 {
		t.Fatalf("no-rerank tail of %d made %v allocations, want at most 120", len(texts), allocs)
	}
}
