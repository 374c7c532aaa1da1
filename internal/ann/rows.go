package ann

import (
	"fmt"

	"repro/internal/mat"
)

// Rows is the one resident copy of a collection's vectors: the ids in
// insertion order, the vectors packed row-major, and the id→row map. A
// vector database owns one Rows per collection and every index over the
// collection borrows it, keeping only its own structures (codes, lists,
// centroids, graph) addressed by dense row position. Rows is not
// synchronised: its owner appends under a write lock and searches under a
// read lock. An index must read rows through the *Rows on every call and
// never cache a slice header, because an Append may reallocate the rows.
type Rows struct {
	dim  int
	ids  []int64
	data []float32 // row-major, len = len(ids)*dim
	pos  map[int64]int32
}

// NewRows returns an empty row store for dim-dimensional vectors.
func NewRows(dim int) *Rows {
	if dim <= 0 {
		panic("ann: NewRows dim must be positive")
	}
	return &Rows{dim: dim, pos: make(map[int64]int32)}
}

// Dim returns the vector dimensionality.
func (r *Rows) Dim() int { return r.dim }

// Len returns the number of stored rows.
func (r *Rows) Len() int { return len(r.ids) }

// ID returns the id stored at row i.
func (r *Rows) ID(i int) int64 { return r.ids[i] }

// Row returns the vector at row i, aliasing the store: callers must not
// retain it past the next Append or mutate it.
func (r *Rows) Row(i int) mat.Vec {
	off := i * r.dim
	return r.data[off : off+r.dim : off+r.dim]
}

// Pos returns the row holding id.
func (r *Rows) Pos(id int64) (int, bool) {
	i, ok := r.pos[id]
	return int(i), ok
}

// Append copies v bit for bit into a new row and returns its position; ok
// is false (and nothing is stored) when id is already present. It panics
// on a dimension mismatch — owners validate dims at their boundary.
func (r *Rows) Append(id int64, v mat.Vec) (row int, ok bool) {
	if len(v) != r.dim {
		panic(fmt.Sprintf("ann: Append dim %d != %d", len(v), r.dim))
	}
	if _, dup := r.pos[id]; dup {
		return 0, false
	}
	row = len(r.ids)
	r.pos[id] = int32(row)
	r.ids = append(r.ids, id)
	r.data = append(r.data, v...)
	return row, true
}

// Bytes is the rows' footprint: 4·dim bytes of vector and 8 of id per row.
func (r *Rows) Bytes() int64 { return int64(len(r.data))*4 + int64(len(r.ids))*8 }

// TopK returns the k rows scoring highest against q (inner product),
// descending by score with ascending-id tie-break — the exact scan behind
// the flat index, every index's Params.Exhaustive and an unindexed
// collection.
func (r *Rows) TopK(q mat.Vec, k int) []mat.Scored {
	var out [1][]mat.Scored
	r.topK([]mat.Vec{q}, k, out[:])
	return out[0]
}

// TopKBatch answers TopK for every query in one sweep over the rows,
// results aligned with qs and bit-identical to per-query TopK calls.
func (r *Rows) TopKBatch(qs []mat.Vec, k int) [][]mat.Scored {
	out := make([][]mat.Scored, len(qs))
	r.topK(qs, k, out)
	return out
}

// topK is the one exact scan. Rows are visited in mat.ScanBlock chunks and
// every query scores a chunk through mat.ScoreRows while it is
// cache-resident, so Q queries pay for one memory pass instead of Q; the
// row kernels share mat.Dot's canonical reduction, so every score equals
// mat.Dot(q, row) bit for bit. Each query's pooled heap is guarded by a
// threshold gate: once the heap is full, a score strictly below its lowest
// retained score loses whatever its id, so Push is skipped without
// changing the retained set (equal scores still go through Push, where the
// ascending-id tie-break may admit them).
func (r *Rows) topK(qs []mat.Vec, k int, out [][]mat.Scored) {
	if k <= 0 || len(r.ids) == 0 || len(qs) == 0 {
		return
	}
	for j, q := range qs {
		if len(q) != r.dim {
			panic(fmt.Sprintf("ann: query %d dim %d != %d", j, len(q), r.dim))
		}
	}
	var held [8]*mat.TopK // a serving batch's heaps stay off the GC heap
	tops := held[:0]
	for range qs {
		tops = append(tops, mat.GetTopK(k))
	}
	scratch := mat.GetScratch(mat.ScanBlock)
	defer scratch.Release()
	for start := 0; start < len(r.ids); start += mat.ScanBlock {
		end := min(start+mat.ScanBlock, len(r.ids))
		block := r.data[start*r.dim : end*r.dim]
		for j, q := range qs {
			top := tops[j]
			thr := top.Threshold()
			for i, s := range mat.ScoreRows(scratch.Buf[:end-start], q, block, r.dim) {
				if s < thr {
					continue
				}
				top.Push(r.ids[start+i], s)
				thr = top.Threshold()
			}
		}
	}
	for j, top := range tops {
		out[j] = top.Sorted()
		mat.PutTopK(top)
	}
}
