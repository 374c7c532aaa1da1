package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/keyframe"
	"repro/internal/query"
	"repro/internal/vectordb"
)

var dsCfg = datasets.Config{Seed: 7, FPS: 1, Scale: 0.12}

// buildSystem ingests a dataset into a fresh system.
func buildSystem(t *testing.T, ds *datasets.Dataset, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := s.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPatchIDRoundTrip(t *testing.T) {
	cases := [][3]int{{0, 0, 0}, {3, 1234, 99}, {14, 250_000_000, 4095}}
	for _, c := range cases {
		id := PackPatchID(c[0], c[1], c[2])
		v, f, p := UnpackPatchID(id)
		if v != c[0] || f != c[1] || p != c[2] {
			t.Fatalf("roundtrip %v -> %d %d %d", c, v, f, p)
		}
	}
}

// TestSegmentSizeIsTheStoreSwitch: SegmentSize alone picks the store's seal
// threshold — and so whether it reports segment state — a negative size is
// refused, and the deprecated Streaming bit set without a size is refused
// by name rather than silently giving a batch store.
func TestSegmentSizeIsTheStoreSwitch(t *testing.T) {
	for _, tc := range []struct {
		cfg       Config
		segmented bool
	}{
		{Config{Seed: 1}, false},
		{Config{Seed: 1, SegmentSize: 64}, true},
		{Config{Seed: 1, Streaming: true, SegmentSize: 64}, true},
	} {
		s, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if _, got := s.SegmentStats(); got != tc.segmented {
			t.Fatalf("SegmentSize %d: segmented = %v, want %v", tc.cfg.SegmentSize, got, tc.segmented)
		}
	}
	for _, cfg := range []Config{{Seed: 1, Streaming: true}, {Seed: 1, SegmentSize: -1}} {
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), "SegmentSize") {
			t.Fatalf("%+v: want an error naming SegmentSize, got %v", cfg, err)
		}
	}
}

func TestIngestPopulatesStores(t *testing.T) {
	ds := datasets.Bellevue(dsCfg)
	s := buildSystem(t, ds, Config{Seed: 1})
	st := s.Stats()
	if st.Videos != 1 || st.Frames == 0 || st.Keyframes == 0 || st.Tokens == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Keyframes >= st.Frames {
		t.Fatalf("keyframes (%d) must compress frames (%d)", st.Keyframes, st.Frames)
	}
	if s.Entities() != st.Tokens {
		t.Fatalf("collection %d != tokens %d", s.Entities(), st.Tokens)
	}
	if kind := s.Segmented().Stats().IndexKind; kind != vectordb.IndexIMI {
		t.Fatalf("index kind = %q", kind)
	}
	if st.Processing <= 0 || st.Indexing <= 0 {
		t.Fatalf("timings = %+v", st)
	}
}

func TestQuerySimpleRetrievesRelevantObjects(t *testing.T) {
	ds := datasets.Bellevue(dsCfg)
	s := buildSystem(t, ds, Config{Seed: 1})
	res, err := Query(context.Background(), s, "A bus driving on the road.", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("no results")
	}
	// The top results must actually be buses: check against ground truth
	// scene descriptions.
	hits := 0
	checked := 0
	for _, o := range res.Objects {
		if checked == 5 {
			break
		}
		f, ok := s.Keyframe(o.VideoID, o.FrameIdx)
		if !ok {
			t.Fatalf("result frame %d/%d not retained", o.VideoID, o.FrameIdx)
		}
		checked++
		for i := range f.Objects {
			if f.Objects[i].Class == "bus" && f.Objects[i].Box.IoU(o.Box) > 0.5 {
				hits++
				break
			}
		}
	}
	if hits < 3 {
		t.Fatalf("only %d/%d top results are buses", hits, checked)
	}
	if res.FastSearch <= 0 || res.Rerank <= 0 {
		t.Fatalf("timings: %+v", res)
	}
}

func TestQueryComplexRelationBenefitsFromRerank(t *testing.T) {
	ds := datasets.Bellevue(dsCfg)
	s := buildSystem(t, ds, Config{Seed: 1})
	const q = "A red car side by side with another car, both positioned in the center of the road."
	gt := datasets.GroundTruth(ds, termsOf(q))
	if len(gt) == 0 {
		t.Skip("no ground truth at this scale")
	}
	withRerank, err := Query(context.Background(), s, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Query(context.Background(), s, q, QueryOptions{DisableRerank: true})
	if err != nil {
		t.Fatal(err)
	}
	// Count how many of the top-5 results satisfy the full relational
	// query in ground truth.
	count := func(objs []ResultObject) int {
		n := 0
		for i, o := range objs {
			if i == 5 {
				break
			}
			f, ok := s.Keyframe(o.VideoID, o.FrameIdx)
			if !ok {
				continue
			}
			for oi := range f.Objects {
				if f.MatchesTermsRelational(oi, termsOf(q)) && f.Objects[oi].Box.IoU(o.Box) > 0.5 {
					n++
					break
				}
			}
		}
		return n
	}
	if count(withRerank.Objects) < count(without.Objects) {
		t.Fatalf("rerank (%d correct) must not lose to fast-only (%d) on relation queries",
			count(withRerank.Objects), count(without.Objects))
	}
}

func termsOf(q string) []string {
	p := query.Parse(q)
	out := make([]string, 0, len(p.Terms))
	for _, t := range p.Terms {
		out = append(out, t.Name)
	}
	return out
}

func TestQueryUnknownTermsErrors(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: 0.05})
	s := buildSystem(t, ds, Config{Seed: 1})
	if _, err := Query(context.Background(), s, "zorgon blarf", QueryOptions{}); err == nil {
		t.Fatal("nonsense query must error")
	}
}

func TestQueryBeforeBuildFallsBackToScan(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: 0.05})
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := s.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Query(context.Background(), s, "car", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) == 0 {
		t.Fatal("unindexed query must still answer via exact scan")
	}
}

func TestExhaustiveSlowerSameAnswers(t *testing.T) {
	ds := datasets.Bellevue(dsCfg)
	s := buildSystem(t, ds, Config{Seed: 1})
	fast, err := Query(context.Background(), s, "A red car driving in the center of the road.", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Query(context.Background(), s, "A red car driving in the center of the road.", QueryOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Objects) == 0 || len(ex.Objects) == 0 {
		t.Fatal("both modes must answer")
	}
}

func TestKeyframeAblationIndexesMore(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: 0.06})
	withKF := buildSystem(t, ds, Config{Seed: 1})
	without := buildSystem(t, ds, Config{Seed: 1, Keyframe: keyframe.All{}})
	if without.Stats().Tokens <= withKF.Stats().Tokens {
		t.Fatalf("w/o keyframes must index more tokens: %d vs %d",
			without.Stats().Tokens, withKF.Stats().Tokens)
	}
	if without.Segmented().Stats().RawBytes <= withKF.Segmented().Stats().RawBytes {
		t.Fatal("w/o keyframes must use more storage")
	}
}

func TestIndexVariants(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: 0.06})
	for _, kind := range []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIVFPQ, vectordb.IndexHNSW} {
		t.Run(string(kind), func(t *testing.T) {
			s := buildSystem(t, ds, Config{Seed: 1, Index: kind})
			res, err := Query(context.Background(), s, "A bus driving on the road.", QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Objects) == 0 {
				t.Fatalf("%s: no results", kind)
			}
		})
	}
}

func TestResultTotalSums(t *testing.T) {
	r := &Result{}
	r.FastSearch = 100
	r.Rerank = 200
	if r.Total() != 300 {
		t.Fatal("Total must sum stages")
	}
}

func TestTopNLimitsFrames(t *testing.T) {
	ds := datasets.Bellevue(dsCfg)
	s := buildSystem(t, ds, Config{Seed: 1})
	res, err := Query(context.Background(), s, "car", QueryOptions{TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	frames := map[[2]int]bool{}
	for _, o := range res.Objects {
		frames[[2]int{o.VideoID, o.FrameIdx}] = true
	}
	if len(frames) > 2 {
		t.Fatalf("TopN=2 but %d frames returned", len(frames))
	}
}
