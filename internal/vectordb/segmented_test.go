package vectordb

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

func newSeg(t *testing.T, threshold int) *SegmentedCollection {
	t.Helper()
	s, err := NewSegmented("patches", Schema{Dim: dim, Normalize: true},
		IndexIMI, IndexOptions{P: 4, M: 16, Seed: 9}, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentedValidation(t *testing.T) {
	if _, err := NewSegmented("x", Schema{Dim: 0}, IndexIMI, IndexOptions{}, 0); !errors.Is(err, ErrDimension) {
		t.Fatalf("zero dim: %v", err)
	}
	s := newSeg(t, 100)
	if err := s.Insert(1, mat.Vec{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("dim mismatch: %v", err)
	}
}

func TestSegmentedAutoSeal(t *testing.T) {
	s := newSeg(t, 100)
	for i := 0; i < 350; i++ {
		if err := s.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sealed, growing := s.Segments()
	if sealed != 3 || growing != 50 {
		t.Fatalf("segments = %d sealed, %d growing; want 3, 50", sealed, growing)
	}
	if s.Len() != 350 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSegmentedSearchSpansSegments(t *testing.T) {
	s := newSeg(t, 100)
	for i := 0; i < 250; i++ {
		if err := s.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Probe vectors living in a sealed segment and in the growing one.
	for _, probe := range []int{10, 140, 240} {
		res, err := s.Search(unit(uint64(probe)), 1, ann.Params{NProbe: 16})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != int64(probe+1) {
			t.Fatalf("probe %d: got %v", probe, res)
		}
	}
}

func TestSegmentedMatchesMonolithic(t *testing.T) {
	// A segmented collection must return the same exact top-k as one
	// monolithic exact collection over the same data.
	s := newSeg(t, 64)
	db := New()
	mono, _ := db.CreateCollection("mono", Schema{Dim: dim, Normalize: true})
	for i := 0; i < 300; i++ {
		v := unit(uint64(i))
		if err := s.Insert(int64(i+1), v); err != nil {
			t.Fatal(err)
		}
		if err := mono.Insert(int64(i+1), v); err != nil {
			t.Fatal(err)
		}
	}
	q := unit(777)
	segHits, err := s.Search(q, 5, ann.Params{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	monoHits, err := mono.Search(q, 5, ann.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range monoHits {
		if segHits[i].ID != monoHits[i].ID {
			t.Fatalf("rank %d: segmented %d vs monolithic %d", i, segHits[i].ID, monoHits[i].ID)
		}
	}
}

func TestSegmentedDuplicateAcrossSegments(t *testing.T) {
	s := newSeg(t, 10)
	for i := 0; i < 25; i++ {
		if err := s.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// id 3 lives in a sealed segment by now.
	if err := s.Insert(3, unit(999)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("cross-segment duplicate: %v", err)
	}
}

func TestSegmentedSealAndCompact(t *testing.T) {
	s := newSeg(t, 100)
	for i := 0; i < 230; i++ {
		_ = s.Insert(int64(i+1), unit(uint64(i)))
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed, growing := s.Segments()
	if sealed != 3 || growing != 0 {
		t.Fatalf("after seal: %d sealed, %d growing", sealed, growing)
	}
	// Sealing an empty growing segment is a no-op.
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	q := unit(42)
	before, err := s.Search(q, 5, ann.Params{NProbe: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	sealed, _ = s.Segments()
	if sealed != 1 {
		t.Fatalf("after compact: %d sealed", sealed)
	}
	if s.Len() != 230 {
		t.Fatalf("compact lost vectors: %d", s.Len())
	}
	after, err := s.Search(q, 5, ann.Params{NProbe: 16})
	if err != nil {
		t.Fatal(err)
	}
	if before[0].ID != after[0].ID {
		t.Fatalf("top hit changed across compact: %d vs %d", before[0].ID, after[0].ID)
	}
}

func TestSegmentedStats(t *testing.T) {
	s := newSeg(t, 100)
	for i := 0; i < 150; i++ {
		_ = s.Insert(int64(i+1), unit(uint64(i)))
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Count != 150 || st.RawBytes <= 0 || st.IndexBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	seg := s.SegmentStats()
	if !seg.Streaming || seg.Sealed != 1 || seg.Building != 0 || seg.GrowingLen != 50 {
		t.Fatalf("segment stats = %+v", seg)
	}
	if seg.SealedVectors != 100 || seg.Seals != 1 || seg.IndexBytes <= 0 {
		t.Fatalf("segment stats = %+v", seg)
	}
}

func TestSegmentedConcurrent(t *testing.T) {
	s := newSeg(t, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := s.Insert(int64(g*1000+i+1), unit(uint64(g*100+i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Search(unit(uint64(g*7+i)), 5, ann.Params{NProbe: 8}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != 400 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSegmentedNoFullRebuild(t *testing.T) {
	// The point of segmentation: inserting new footage after a seal must
	// not touch sealed segments' indexes (their identity is stable).
	s := newSeg(t, 100)
	for i := 0; i < 100; i++ {
		_ = s.Insert(int64(i+1), unit(uint64(i)))
	}
	sealedBefore, _ := s.Segments()
	if sealedBefore != 1 {
		t.Fatalf("expected 1 sealed segment, got %d", sealedBefore)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	firstSeg := s.sealed[0].col
	for i := 100; i < 150; i++ {
		_ = s.Insert(int64(i+1), unit(uint64(i)))
	}
	if s.sealed[0].col != firstSeg {
		t.Fatal("sealed segment was rebuilt by later inserts")
	}
}
