package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/mat"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// patchRow is one patch's metadata (Section V-B): the keyframe it was cut
// from and the box the box head predicted for it. It is also the snapshot's
// row encoding, so its field names are part of the LOVOSYS1 format.
type patchRow struct {
	PatchID, VideoID, FrameIdx, Patch int64
	X, Y, W, H, Objectness            float64
}

// patchTable is the relational side-store of Section V-B: patch metadata
// keyed by the patch ID the vector store shares, joined to stage 1's hits.
type patchTable struct {
	mu   sync.RWMutex
	rows map[int64]patchRow
}

// insert stores one video's rows: all of them, or none when any patch ID is
// already stored or repeats within rows. A duplicate wraps
// vectordb.ErrDuplicate, the sentinel the vector store's own check returns.
func (t *patchTable) insert(rows []patchRow) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range rows {
		if _, dup := t.rows[r.PatchID]; dup {
			for _, done := range rows[:i] {
				delete(t.rows, done.PatchID)
			}
			return fmt.Errorf("core: patch metadata: %w: %d", vectordb.ErrDuplicate, r.PatchID)
		}
		t.rows[r.PatchID] = r
	}
	return nil
}

// join resolves each query's fast-search hits into ResultObjects, preserving
// hit order. The whole leg reads under one read lock.
func (t *patchTable) join(lists [][]mat.Scored) ([][]ResultObject, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]ResultObject, len(lists))
	for i, hits := range lists {
		objects := make([]ResultObject, len(hits))
		for j, h := range hits {
			r, ok := t.rows[h.ID]
			if !ok {
				return nil, fmt.Errorf("core: metadata join: no row for patch %d", h.ID)
			}
			objects[j] = ResultObject{
				VideoID:  int(r.VideoID),
				FrameIdx: int(r.FrameIdx),
				Box:      video.Box{X: r.X, Y: r.Y, W: r.W, H: r.H},
				Score:    h.Score,
				PatchID:  h.ID,
			}
		}
		out[i] = objects
	}
	return out, nil
}

// sorted returns a copy of every row in ascending patch-ID order.
func (t *patchTable) sorted() []patchRow {
	t.mu.RLock()
	out := make([]patchRow, 0, len(t.rows))
	for _, r := range t.rows {
		out = append(out, r)
	}
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b patchRow) int { return cmp.Compare(a.PatchID, b.PatchID) })
	return out
}
