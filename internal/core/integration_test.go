package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/ann"
	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/vectordb"
)

// TestEndToEndQVHighlights exercises the full pipeline on the multi-video,
// moving-camera workload with an in-car containment query.
func TestEndToEndQVHighlights(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 7, Scale: 0.12})
	s := buildSystem(t, ds, Config{Seed: 1})
	res, err := Query(context.Background(), s, "A woman smiling sitting inside car.", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("no results")
	}
	// Top results must be smiling seated women, verified against scene
	// ground truth.
	hits := 0
	for i, o := range res.Objects {
		if i == 3 {
			break
		}
		f, ok := s.Keyframe(o.VideoID, o.FrameIdx)
		if !ok {
			t.Fatal("result frame not retained")
		}
		for oi := range f.Objects {
			if f.MatchesTermsRelational(oi, []string{"woman", "smiling", "sitting", "inside car"}) &&
				f.Objects[oi].Box.IoU(o.Box) > 0.5 {
				hits++
				break
			}
		}
	}
	if hits < 2 {
		t.Fatalf("only %d/3 top results are smiling seated women", hits)
	}
}

// TestSnapshotRoundTrip persists the vector store and verifies the
// reloaded index answers fast search identically.
func TestSnapshotRoundTrip(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, Scale: 0.06})
	s := buildSystem(t, ds, Config{Seed: 1})

	var buf bytes.Buffer
	if err := s.Segmented().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := vectordb.LoadSegmented(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Entities() {
		t.Fatalf("reloaded %d vectors, want %d", loaded.Len(), s.Entities())
	}
	if kind, _, _ := loaded.Recipe(); kind != vectordb.IndexIMI {
		t.Fatalf("index kind = %q", kind)
	}
	// Identical fast-search results before and after.
	q := storedVectors(s)[firstID(t, s)]
	a, err := s.Segmented().Search(q, 10, ann.Params{NProbe: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(q, 10, ann.Params{NProbe: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("rank %d: %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
}

// storedVectors copies every stored patch vector by patch ID.
func storedVectors(s *System) map[int64]mat.Vec {
	out := map[int64]mat.Vec{}
	s.Segmented().Scan(func(id int64, v mat.Vec) bool {
		out[id] = mat.Clone(v)
		return true
	})
	return out
}

// firstID fetches one stored patch ID via the relational side (insertion
// order scan).
func firstID(t *testing.T, s *System) int64 {
	t.Helper()
	rows := s.patches.Scan(nil)
	if len(rows) == 0 {
		t.Fatal("no patch metadata")
	}
	return rows[0][0].(int64)
}

// TestMetadataJoinConsistency verifies every indexed vector has exactly one
// relational row and the patch-ID round trip is coherent.
func TestMetadataJoinConsistency(t *testing.T) {
	ds := datasets.Beach(datasets.Config{Seed: 7, Scale: 0.06})
	s := buildSystem(t, ds, Config{Seed: 1})
	rows := s.patches.Scan(nil)
	if len(rows) != s.Entities() {
		t.Fatalf("metadata rows %d != vectors %d", len(rows), s.Entities())
	}
	vecs := storedVectors(s)
	for _, row := range rows[:min(len(rows), 50)] {
		pid := row[0].(int64)
		vid, fi, _ := UnpackPatchID(pid)
		if int64(vid) != row[1].(int64) || int64(fi) != row[2].(int64) {
			t.Fatalf("patch id %d decodes to (%d,%d) but row says (%d,%d)",
				pid, vid, fi, row[1], row[2])
		}
		if _, ok := vecs[pid]; !ok {
			t.Fatalf("vector missing for patch %d", pid)
		}
		if _, ok := s.Keyframe(vid, fi); !ok {
			t.Fatalf("keyframe (%d,%d) not retained", vid, fi)
		}
	}
}

// TestStreamingMode exercises segmented incremental indexing: per-video
// ingest+seal, queries answered across segments, no full rebuilds.
func TestStreamingMode(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 7, Scale: 0.1})
	s, err := New(Config{Seed: 1, SegmentSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := s.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.BuildIndex(); err != nil { // seals the segment
			t.Fatal(err)
		}
	}
	if s.Segmented() == nil {
		t.Fatal("streaming system must expose its segmented store")
	}
	if st := s.Segmented().SegmentStats(); st.Sealed < 2 {
		t.Fatalf("expected multiple sealed segments, got %+v", st)
	}
	res, err := Query(context.Background(), s, "A woman smiling sitting inside car.", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("streaming query returned nothing")
	}
	if s.Entities() == 0 {
		t.Fatal("no entities")
	}
}

// TestStreamingMatchesBatchAnswers compares streaming and batch modes on
// the same workload: same retrieval targets must surface.
func TestStreamingMatchesBatchAnswers(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, Scale: 0.08})
	batch := buildSystem(t, ds, Config{Seed: 1})
	stream, err := New(Config{Seed: 1, SegmentSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := stream.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if batch.Entities() != stream.Entities() {
		t.Fatalf("entity counts differ: %d vs %d", batch.Entities(), stream.Entities())
	}
	const q = "A bus driving on the road."
	rb, err := Query(context.Background(), batch, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Query(context.Background(), stream, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Objects) == 0 || len(rs.Objects) == 0 {
		t.Fatal("both modes must answer")
	}
	// Top frame sets should overlap substantially (indexes differ only in
	// segmentation, not content).
	top := func(objs []ResultObject, n int) map[[2]int]bool {
		out := map[[2]int]bool{}
		for i, o := range objs {
			if i == n {
				break
			}
			out[[2]int{o.VideoID, o.FrameIdx}] = true
		}
		return out
	}
	tb, ts := top(rb.Objects, 5), top(rs.Objects, 5)
	overlap := 0
	for k := range tb {
		if ts[k] {
			overlap++
		}
	}
	if overlap < 2 {
		t.Fatalf("streaming and batch top-5 frames barely overlap (%d/5)", overlap)
	}
}
