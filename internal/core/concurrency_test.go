package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/keyframe"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// concurrencyQueries is a small mix exercising simple and relational paths.
var concurrencyQueries = []string{
	"A bus driving on the road.",
	"A red car driving in the center of the road.",
	"A person walking on the road.",
	"A red car side by side with another car, both positioned in the center of the road.",
}

// concurrencyWorkload shrinks the dataset and query mix under -short so the
// race-enabled CI run stays fast while still exercising every code path.
func concurrencyWorkload(t *testing.T) (datasets.Config, []string) {
	t.Helper()
	if testing.Short() {
		return datasets.Config{Seed: 7, FPS: 1, Scale: 0.06}, concurrencyQueries[:2]
	}
	return dsCfg, concurrencyQueries
}

func TestPackPatchIDBoundsRoundTrip(t *testing.T) {
	id := PackPatchID(MaxVideoID, MaxFrameIdx, MaxPatch)
	v, f, p := UnpackPatchID(id)
	if v != MaxVideoID || f != MaxFrameIdx || p != MaxPatch {
		t.Fatalf("boundary roundtrip: got %d %d %d", v, f, p)
	}
}

// Regression: out-of-range coordinates used to pack silently, producing a
// join key that aliases another patch's (videoID 2^16 collides into the
// frame field). They must refuse loudly now.
func TestPackPatchIDRangeGuards(t *testing.T) {
	cases := []struct {
		name             string
		video, frame, pt int
	}{
		{"video overflow", MaxVideoID + 1, 0, 0},
		{"frame overflow", 0, MaxFrameIdx + 1, 0},
		{"patch overflow", 0, 0, MaxPatch + 1},
		{"negative video", -1, 0, 0},
		{"negative frame", 0, -1, 0},
		{"negative patch", 0, 0, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("PackPatchID(%d, %d, %d) must panic", c.video, c.frame, c.pt)
				}
			}()
			PackPatchID(c.video, c.frame, c.pt)
		})
	}
}

func TestNewRejectsOversizedGrid(t *testing.T) {
	// 128x64 = 8192 patches would overflow the 12-bit packed patch field
	// (and collide with centre-sampled anchor tokens); New must refuse.
	if _, err := New(Config{Seed: 1, GridW: 128, GridH: 64}); err == nil {
		t.Fatal("oversized patch grid must be rejected")
	}
	if _, err := New(Config{Seed: 1, GridW: 64, GridH: 32}); err != nil {
		t.Fatalf("2048-patch grid is the documented maximum: %v", err)
	}
}

// TestNewRejectsUnknownIndexKind: New refuses an index kind nothing can
// build, on either store — before, a segmented system accepted it and then
// hung BuildIndex behind a maintenance loop retrying failed seals — and
// resolves the command-line alias "bf" to the flat kind.
func TestNewRejectsUnknownIndexKind(t *testing.T) {
	for _, size := range []int{0, 2} {
		_, err := New(Config{Seed: 1, Index: "bogus", SegmentSize: size})
		if err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Fatalf("SegmentSize %d: want an error naming the kind, got %v", size, err)
		}
	}
	s, err := New(Config{Seed: 1, Index: "bf"})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Index != vectordb.IndexFlat {
		t.Fatalf("alias bf resolved to %q, want %q", s.cfg.Index, vectordb.IndexFlat)
	}
}

func TestIngestRejectsOutOfRangeIDs(t *testing.T) {
	s, err := New(Config{Seed: 1, Keyframe: keyframe.All{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(&video.Video{ID: MaxVideoID + 1}); err == nil {
		t.Fatal("video ID beyond the 16-bit field must be rejected")
	}
	v := &video.Video{ID: 1, Frames: []video.Frame{{VideoID: 1, Index: MaxFrameIdx + 1}}}
	if err := s.Ingest(v); err == nil {
		t.Fatal("frame index beyond the 28-bit field must be rejected")
	}
}

// TestParallelIngestDeterminism asserts that a system ingested with many
// encoding workers is indistinguishable from the serial baseline: same
// counters and byte-identical query answers.
func TestParallelIngestDeterminism(t *testing.T) {
	cfg, queries := concurrencyWorkload(t)
	ds := datasets.Bellevue(cfg)
	serial := buildSystem(t, ds, Config{Seed: 1, Workers: 1})
	parallel := buildSystem(t, ds, Config{Seed: 1, Workers: 8})

	ss, ps := serial.Stats(), parallel.Stats()
	if ss.Tokens != ps.Tokens || ss.Keyframes != ps.Keyframes {
		t.Fatalf("counters diverge: serial %d tokens/%d keyframes, parallel %d/%d",
			ss.Tokens, ss.Keyframes, ps.Tokens, ps.Keyframes)
	}
	for _, q := range queries {
		want, err := Query(context.Background(), serial, q, QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Query(context.Background(), parallel, q, QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Objects, got.Objects) {
			t.Fatalf("query %q: parallel-ingest results diverge\nserial:   %+v\nparallel: %+v",
				q, want.Objects, got.Objects)
		}
	}
}

// TestParallelRerankDeterminism asserts the parallel stage-2 rerank returns
// byte-identical results to the serial loop at several fan-out widths.
func TestParallelRerankDeterminism(t *testing.T) {
	cfg, queries := concurrencyWorkload(t)
	ds := datasets.Bellevue(cfg)
	s := buildSystem(t, ds, Config{Seed: 1})
	for _, q := range queries {
		want, err := Query(context.Background(), s, q, QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			got, err := Query(context.Background(), s, q, QueryOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Objects, got.Objects) {
				t.Fatalf("query %q: %d-worker rerank diverges from serial\nserial:   %+v\nparallel: %+v",
					q, w, want.Objects, got.Objects)
			}
			if got.CandidateFrames != want.CandidateFrames {
				t.Fatalf("query %q: candidate frames %d != %d", q, got.CandidateFrames, want.CandidateFrames)
			}
		}
	}
}

func TestQueryBatchMatchesSerial(t *testing.T) {
	cfg, queries := concurrencyWorkload(t)
	ds := datasets.Bellevue(cfg)
	s := buildSystem(t, ds, Config{Seed: 1})
	batch, err := QueryBatch(context.Background(), s, queries, QueryOptions{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		want, err := Query(context.Background(), s, q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Objects, batch[i].Objects) {
			t.Fatalf("batch result %d (%q) diverges from lone query", i, q)
		}
	}
}

func TestQueryBatchPropagatesFirstError(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: 0.05})
	s := buildSystem(t, ds, Config{Seed: 1})
	_, err := QueryBatch(context.Background(), s, []string{"car", "zorgon blarf", "bus"}, QueryOptions{}, 2)
	if err == nil {
		t.Fatal("batch containing a nonsense query must error")
	}
}

// TestConcurrentQueryDuringIngest runs many Query goroutines while the main
// goroutine keeps ingesting and re-indexing. Run under -race this is the
// thread-safety contract of the concurrent engine: no data races, no
// errors, and queries always see a consistent store.
func TestConcurrentQueryDuringIngest(t *testing.T) {
	scale := 0.1
	rounds := 2
	if testing.Short() {
		scale, rounds = 0.06, 1
	}
	ds := datasets.Bellevue(datasets.Config{Seed: 7, FPS: 1, Scale: scale})
	if len(ds.Videos) == 0 {
		t.Skip("no videos at this scale")
	}
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the store so early queries have something to search.
	if err := s.Ingest(&ds.Videos[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := concurrencyQueries[(g+i)%len(concurrencyQueries)]
				res, err := Query(context.Background(), s, q, QueryOptions{})
				if err != nil {
					errCh <- fmt.Errorf("query %q during ingest: %w", q, err)
					return
				}
				if res == nil {
					errCh <- fmt.Errorf("query %q returned nil result", q)
					return
				}
			}
		}(g)
	}

	// Keep ingesting the remaining videos (re-ingest under shifted IDs to
	// extend the run), rebuilding the index as footage arrives.
	for round := 0; round < rounds; round++ {
		for i := range ds.Videos {
			v := ds.Videos[i] // shallow copy; frames are read-only
			v.ID = round*len(ds.Videos) + i + 100
			if err := s.Ingest(&v); err != nil {
				t.Errorf("ingest during queries: %v", err)
				break
			}
		}
		if err := s.BuildIndex(); err != nil {
			t.Errorf("rebuild during queries: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
