package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/vectordb"
	"repro/internal/video"
)

func rowsWithIDs(ids ...int64) []patchRow {
	rows := make([]patchRow, len(ids))
	for i, id := range ids {
		vid, fi, p := UnpackPatchID(id)
		rows[i] = patchRow{PatchID: id, VideoID: int64(vid), FrameIdx: int64(fi), Patch: int64(p), X: float64(i), W: 0.5, H: 0.25}
	}
	return rows
}

// TestPatchTableInsertIsAllOrNothing: a batch with a stored or repeated
// patch ID is refused as a vectordb.ErrDuplicate and stores none of its
// rows; the rest of the table is untouched.
func TestPatchTableInsertIsAllOrNothing(t *testing.T) {
	tbl := patchTable{rows: make(map[int64]patchRow)}
	if err := tbl.insert(rowsWithIDs(10, 20)); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]int64{{30, 40, 10}, {50, 50}, {20}} {
		if err := tbl.insert(rowsWithIDs(batch...)); !errors.Is(err, vectordb.ErrDuplicate) {
			t.Fatalf("insert %v: err %v, want vectordb.ErrDuplicate", batch, err)
		}
	}
	if got, want := tbl.sorted(), rowsWithIDs(10, 20); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after refused batches: %+v, want %+v", got, want)
	}
}

// TestPatchTableSorted: sorted returns every stored row in ascending
// patch-ID order whatever the insert order, as a copy the table does not
// share.
func TestPatchTableSorted(t *testing.T) {
	tbl := patchTable{rows: make(map[int64]patchRow)}
	for _, batch := range [][]int64{{17, 3}, {12}, {0, 19, 5}} {
		if err := tbl.insert(rowsWithIDs(batch...)); err != nil {
			t.Fatal(err)
		}
	}
	got := tbl.sorted()
	ids := make([]int64, len(got))
	for i, r := range got {
		ids[i] = r.PatchID
	}
	if want := []int64{0, 3, 5, 12, 17, 19}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("sorted patch IDs %v, want %v", ids, want)
	}
	got[0].X = 42
	if again := tbl.sorted(); again[0].X == 42 {
		t.Fatal("sorted must return a copy of the rows")
	}
}

// TestPatchTableJoinMiss: a join that meets a patch ID the table does not
// hold fails, also when the other hits are stored, and answers nothing.
func TestPatchTableJoinMiss(t *testing.T) {
	tbl := patchTable{rows: make(map[int64]patchRow)}
	id := PackPatchID(1, 2, 3)
	if err := tbl.insert(rowsWithIDs(id)); err != nil {
		t.Fatal(err)
	}
	for _, lists := range [][][]mat.Scored{
		{{{ID: 99}}},
		{{{ID: id, Score: 0.5}, {ID: 99}}},
		{{{ID: id, Score: 0.5}}, {{ID: 99}}},
	} {
		if got, err := tbl.join(lists); err == nil || got != nil {
			t.Fatalf("join %v = %v, %v; want nil and an error", lists, got, err)
		}
	}
}

// TestPatchTableJoin: join answers every hit from its row, in hit order,
// and leaves the table writable once it returns.
func TestPatchTableJoin(t *testing.T) {
	tbl := patchTable{rows: make(map[int64]patchRow)}
	ids := []int64{PackPatchID(1, 2, 3), PackPatchID(4, 5, 6)}
	if err := tbl.insert(rowsWithIDs(ids...)); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.join([][]mat.Scored{{{ID: ids[1], Score: 0.9}, {ID: ids[0], Score: 0.5}}, nil})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]ResultObject{{
		{VideoID: 4, FrameIdx: 5, Box: video.Box{X: 1, W: 0.5, H: 0.25}, Score: 0.9, PatchID: ids[1]},
		{VideoID: 1, FrameIdx: 2, Box: video.Box{X: 0, W: 0.5, H: 0.25}, Score: 0.5, PatchID: ids[0]},
	}, {}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join = %+v, want %+v", got, want)
	}
	if err := tbl.insert(rowsWithIDs(PackPatchID(7, 8, 9))); err != nil {
		t.Fatalf("insert after join: %v", err)
	}
}

// TestPatchTableConcurrentAccess runs batch inserts beside joins (under
// -race it checks the locking).
func TestPatchTableConcurrentAccess(t *testing.T) {
	tbl := patchTable{rows: make(map[int64]patchRow)}
	if err := tbl.insert(rowsWithIDs(PackPatchID(0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for f := range 50 {
				if err := tbl.insert(rowsWithIDs(PackPatchID(w, f, 0), PackPatchID(w, f, 1))); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for range 50 {
				if _, err := tbl.join([][]mat.Scored{{{ID: PackPatchID(0, 0, 0)}}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(tbl.sorted()); n != 1+4*50*2 {
		t.Fatalf("%d rows, want %d", n, 1+4*50*2)
	}
}

// TestRejectedDuplicateIngestChangesNothing: re-ingesting a stored video —
// as is, or with its first keyframe's objects removed — fails with
// vectordb.ErrDuplicate and leaves stats, generation, keyframes and answers
// exactly as they were.
func TestRejectedDuplicateIngestChangesNothing(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, Scale: 0.02})
	s := buildSystem(t, ds, Config{Seed: 1})
	v := ds.Videos[0]
	keys := s.cfg.Keyframe.Select(&v)
	first := v.Frames[keys[0]].Index
	kf, ok := s.Keyframe(v.ID, first)
	if !ok || len(kf.Objects) == 0 {
		t.Fatalf("first keyframe %d: retained %v, %d objects; the test needs one with objects", first, ok, len(kf.Objects))
	}
	stats, gen := s.Stats(), s.IngestGen()
	rows, entities := s.patches.sorted(), s.Entities()

	emptied := v
	emptied.Frames = append([]video.Frame(nil), v.Frames...)
	emptied.Frames[keys[0]].Objects = nil
	for _, dup := range []*video.Video{&v, &emptied} {
		if err := s.Ingest(dup); !errors.Is(err, vectordb.ErrDuplicate) {
			t.Fatalf("re-ingest: err %v, want vectordb.ErrDuplicate", err)
		}
		if got := s.Stats(); got != stats {
			t.Fatalf("stats %+v after a refused ingest, want %+v", got, stats)
		}
		if got := s.IngestGen(); got != gen {
			t.Fatalf("ingest generation %d after a refused ingest, want %d", got, gen)
		}
		for _, fi := range keys {
			f := v.Frames[fi]
			got, ok := s.Keyframe(v.ID, f.Index)
			if !ok || !reflect.DeepEqual(*got, f) {
				t.Fatalf("keyframe %d changed by a refused ingest", f.Index)
			}
		}
		if got := s.patches.sorted(); !reflect.DeepEqual(got, rows) || s.Entities() != entities {
			t.Fatal("stored patches changed by a refused ingest")
		}
	}
}
