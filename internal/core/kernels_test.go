package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/ann"
	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/query"
	"repro/internal/vectordb"
)

// The kernel rewrite must not perturb what a query returns: stage 1 must
// reproduce, bit for bit, an oracle scan computed with one mat.Dot per
// stored vector and a fresh top-k heap — no blocking, batching, pooling or
// threshold gating — and the full two-stage Query must answer identically
// under every index kind driven through the same exhaustive scan.

func TestFlatFastSearchBitIdenticalToOracleScan(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: 0.08})
	s := buildSystem(t, ds, Config{Seed: 7, Index: vectordb.IndexFlat})

	for _, text := range []string{
		"A red car driving in the center of the road.",
		"A person walking on the street.",
		"A truck driving on the road.",
	} {
		fh, err := s.SearchPlanned(context.Background(), text, s.Config().FixedPlan(QueryOptions{}))
		if err != nil {
			t.Fatal(err)
		}

		// Oracle: re-derive the projected query vector through the public
		// encode path, score every stored vector with a lone Dot, keep the
		// canonical top-k.
		parsed := query.Parse(text)
		qvec := s.text.FastVec(parsed)
		qproj := s.space.Project(qvec)
		col := s.Collection()
		top := mat.NewTopK(s.cfg.FastK)
		for _, id := range colIDs(col) {
			v, err := col.Vector(id)
			if err != nil {
				t.Fatal(err)
			}
			top.Push(id, mat.Dot(qproj, v))
		}
		want := top.Sorted()

		if len(fh.Objects) != len(want) {
			t.Fatalf("%q: %d hits, oracle %d", text, len(fh.Objects), len(want))
		}
		for i, o := range fh.Objects {
			if o.PatchID != want[i].ID ||
				math.Float32bits(o.Score) != math.Float32bits(want[i].Score) {
				t.Fatalf("%q hit %d: got (%d, %x), oracle (%d, %x)", text, i,
					o.PatchID, math.Float32bits(o.Score),
					want[i].ID, math.Float32bits(want[i].Score))
			}
		}
	}
}

// colIDs lists every stored vector id via the index's deterministic
// exhaustive search (scores unused).
func colIDs(col *vectordb.Collection) []int64 {
	n := col.Len()
	q := make(mat.Vec, col.Schema().Dim)
	q[0] = 1
	hits, err := col.Search(q, n, ann.Params{Exhaustive: true})
	if err != nil {
		panic(err)
	}
	ids := make([]int64, 0, n)
	for _, h := range hits {
		ids = append(ids, h.ID)
	}
	return ids
}

// TestQueryIdenticalAcrossIndexKindsExhaustive pins the full two-stage
// answer: with exhaustive search, every index kind reduces to the same
// exact scan, so Query must return byte-identical objects whatever the
// backend — the cross-consumer guarantee of the shared kernel layer.
func TestQueryIdenticalAcrossIndexKindsExhaustive(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: 0.08})
	text := "A red car driving in the center of the road."
	var baseline *Result
	for _, kind := range []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIMI, vectordb.IndexIVFPQ, vectordb.IndexHNSW} {
		s := buildSystem(t, ds, Config{Seed: 7, Index: kind})
		res, err := Query(context.Background(), s, text, QueryOptions{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if len(res.Objects) != len(baseline.Objects) {
			t.Fatalf("%s: %d objects, flat %d", kind, len(res.Objects), len(baseline.Objects))
		}
		for i, o := range res.Objects {
			b := baseline.Objects[i]
			if o.VideoID != b.VideoID || o.FrameIdx != b.FrameIdx || o.PatchID != b.PatchID ||
				math.Float32bits(o.Score) != math.Float32bits(b.Score) {
				t.Fatalf("%s object %d: %+v != flat %+v", kind, i, o, b)
			}
		}
	}
}
