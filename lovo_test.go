package lovo

import (
	"reflect"
	"testing"
)

func TestOpenDefaults(t *testing.T) {
	s, err := Open(Options{Seed: 1})
	if err != nil || s == nil {
		t.Fatal(err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{Index: "btree"}); err == nil {
		t.Fatal("unknown index must error")
	}
	if _, err := Open(Options{Keyframes: "psychic"}); err == nil {
		t.Fatal("unknown keyframe strategy must error")
	}
}

func TestEndToEndQuickstart(t *testing.T) {
	s, err := Open(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset("bellevue", DatasetConfig{Seed: 7, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("A red car driving in the center of the road.", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("quickstart query returned nothing")
	}
	st := s.Stats()
	if st.Frames == 0 || st.Tokens == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOpenAllIndexKinds(t *testing.T) {
	ds, err := LoadDataset("beach", DatasetConfig{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"flat", "ivfpq", "imi", "hnsw"} {
		s, err := Open(Options{Seed: 1, Index: kind})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.IngestDataset(ds); err != nil {
			t.Fatal(err)
		}
		if err := s.BuildIndex(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := s.Query("A truck driving on the road.", QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Objects) == 0 {
			t.Fatalf("%s: empty answer", kind)
		}
	}
}

func TestQueryBatchPublicAPI(t *testing.T) {
	s, err := Open(Options{Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset("bellevue", DatasetConfig{Seed: 7, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"A red car driving in the center of the road.",
		"A bus driving on the road.",
	}
	batch, err := s.QueryBatch(texts, QueryOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(texts) {
		t.Fatalf("batch returned %d results for %d texts", len(batch), len(texts))
	}
	for i, text := range texts {
		lone, err := s.Query(text, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lone.Objects, batch[i].Objects) {
			t.Fatalf("batch result %d (%q) diverges from lone query", i, text)
		}
	}
}

func TestLoadDatasetUnknown(t *testing.T) {
	if _, err := LoadDataset("hollywood", DatasetConfig{}); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestStreamingPublicAPI(t *testing.T) {
	s, err := Open(Options{Seed: 2, SegmentSize: 120})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset("beach", DatasetConfig{Seed: 2, Scale: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("A truck driving on the road.", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("streaming query returned nothing")
	}
	if st, ok := s.Core().SegmentStats(); !ok || st.Sealed == 0 {
		t.Fatalf("streaming store reports no sealed segments: %+v, %v", st, ok)
	}
}

func TestShardedPublicAPI(t *testing.T) {
	ds, err := LoadDataset("bellevue", DatasetConfig{Seed: 4, Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	open := func(shards int) *System {
		s, err := Open(Options{Seed: 4, Index: "flat", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.IngestDataset(ds); err != nil {
			t.Fatal(err)
		}
		if err := s.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	single := open(1)
	sharded := open(3)
	if single.Engine() != nil {
		t.Fatal("unsharded system must not expose an engine")
	}
	if sharded.Engine() == nil || sharded.Core() != nil {
		t.Fatal("sharded system must expose the engine, not a core system")
	}
	if sharded.Stats().Keyframes != single.Stats().Keyframes {
		t.Fatalf("sharded keyframes %d != %d", sharded.Stats().Keyframes, single.Stats().Keyframes)
	}
	for _, q := range ds.Queries {
		want, err := single.Query(q.Text, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Query(q.Text, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%s: sharded public API diverges from single system", q.ID)
		}
	}
}
