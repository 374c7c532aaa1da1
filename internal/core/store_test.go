package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ann"
	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/vectordb"
)

// TestBatchStoreIsOneSegment: with SegmentSize 0 the store is one segment
// indexed exactly as a monolithic vectordb.Collection built over the same
// rows with the configured kind and options — after a bulk load, after
// ingest → build → ingest → build (a full rebuild), and after a snapshot
// restart — so approximate and exhaustive answers are byte-identical.
func TestBatchStoreIsOneSegment(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, Scale: 0.03})
	extra := datasets.Bellevue(datasets.Config{Seed: 18, Scale: 0.02}).Videos[0]
	extra.ID = 7
	qs := make([]mat.Vec, 6)
	for i := range qs {
		qs[i] = mat.UnitGaussianVec(32, uint64(100+i))
	}
	for _, kind := range []vectordb.IndexKind{vectordb.IndexIMI, vectordb.IndexIVFPQ, vectordb.IndexHNSW, vectordb.IndexFlat} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := Config{Seed: 1, Index: kind}
			s := buildSystem(t, ds, cfg)
			sameAsMonolith(t, "bulk load", s, qs)

			if err := s.Ingest(&extra); err != nil {
				t.Fatal(err)
			}
			if err := s.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if st := s.Segmented().SegmentStats(); st.Sealed != 1 || st.Building != 0 || st.GrowingLen != 0 {
				t.Fatalf("after a rebuild: segments %+v, want exactly one sealed", st)
			}
			sameAsMonolith(t, "ingest, build, ingest, build", s, qs)

			var buf bytes.Buffer
			if err := s.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			sameAsMonolith(t, "snapshot restart", restored, qs)
		})
	}
}

// sameAsMonolith checks s's fast search against a Collection built over
// s's stored rows (appended verbatim: they are normalised already) with
// s's configured index kind and options.
func sameAsMonolith(t *testing.T, when string, s *System, qs []mat.Vec) {
	t.Helper()
	cfg := s.Config()
	mono, err := vectordb.New().CreateCollection("mono", vectordb.Schema{Dim: cfg.ProjDim})
	if err != nil {
		t.Fatal(err)
	}
	s.Segmented().Scan(func(id int64, v mat.Vec) bool {
		if err := mono.Insert(id, v); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := mono.BuildIndex(cfg.Index, cfg.IndexOptions); err != nil {
		t.Fatal(err)
	}
	// The low-effort params make approximate answers seed-sensitive.
	for _, p := range []ann.Params{{NProbe: cfg.NProbe, Ef: cfg.Ef}, {NProbe: 2, Ef: 8}, {Exhaustive: true}} {
		got, err := s.searchVectorsBatch(qs, cfg.FastK, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mono.SearchBatch(qs, cfg.FastK, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %+v: the store's answers differ from a monolithic index over the same rows", when, p)
		}
	}
}
