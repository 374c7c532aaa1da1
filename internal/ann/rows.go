package ann

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
// the flat kind, every index's Params.Exhaustive and an unindexed
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
// mat.Dot(q, row) bit for bit. Each query selects into its own pooled
// buffer (see selection): a score that ranks below the current k-th best
// in the canonical order loses whatever comes later, so only the rest are
// appended, and the canonical top-k set is unique, so the answer equals
// what a mat.TopK heap retains.
func (r *Rows) topK(qs []mat.Vec, k int, out [][]mat.Scored) {
	if k <= 0 || len(r.ids) == 0 || len(qs) == 0 {
		return
	}
	for j, q := range qs {
		if len(q) != r.dim {
			panic(fmt.Sprintf("ann: query %d dim %d != %d", j, len(q), r.dim))
		}
	}
	var held [8]*selection // a serving batch's buffers stay off the GC heap
	sels := held[:0]
	for range qs {
		sels = append(sels, getSelection(k, len(r.ids)))
	}
	scratch := mat.GetScratch(mat.ScanBlock)
	defer scratch.Release()
	for start := 0; start < len(r.ids); start += mat.ScanBlock {
		end := min(start+mat.ScanBlock, len(r.ids))
		block := r.data[start*r.dim : end*r.dim]
		ids := r.ids[start:end]
		for j, q := range qs {
			sel := sels[j]
			buf, thr, thrID := sel.buf, sel.thr, sel.thrID
			for i, s := range mat.ScoreRows(scratch.Buf[:end-start], q, block, r.dim) {
				if s < thr || s == thr && ids[i] > thrID {
					continue
				}
				buf = append(buf, mat.Scored{ID: ids[i], Score: s})
				if len(buf) == sel.limit {
					buf = sel.cut(buf, k)
					thr, thrID = sel.thr, sel.thrID
				}
			}
			sel.buf = buf
		}
	}
	for j, sel := range sels {
		out[j] = sel.sorted(k)
		selectionPool.Put(sel)
	}
}

// selection is one query's top-k selection in Rows.topK. Survivors of the
// gate collect in buf; once buf holds limit = 2k of them, cut keeps the k
// best and raises the gate to the k-th best (thr, thrID). Each cut is a
// linear quickselect that halves the buffer, so a survivor costs amortized
// O(1) where a heap push costs O(log k), and the k winners are sorted once
// at the end.
type selection struct {
	buf   []mat.Scored
	limit int
	thr   float32 // the k-th best score after the first cut, -Inf before
	thrID int64   // the k-th best ID; a tie at thr admits only lower IDs
}

var selectionPool = sync.Pool{New: func() any { return new(selection) }}

// getSelection returns a pooled selection for the top k of n rows. Its
// buffer never needs more than min(2k, n) entries: below 2k there is no
// cut, and a scan appends at most n.
func getSelection(k, n int) *selection {
	sel := selectionPool.Get().(*selection)
	if need := min(2*k, n); cap(sel.buf) < need {
		sel.buf = make([]mat.Scored, 0, need)
	}
	sel.buf = sel.buf[:0]
	sel.limit = 2 * k
	sel.thr, sel.thrID = float32(math.Inf(-1)), math.MaxInt64
	return sel
}

// cut keeps buf's k best and makes the k-th best the gate.
func (sel *selection) cut(buf []mat.Scored, k int) []mat.Scored {
	SelectTop(buf, k)
	sel.thr, sel.thrID = buf[k-1].Score, buf[k-1].ID
	return buf[:k]
}

// sorted returns a fresh copy of the k best survivors in canonical order.
func (sel *selection) sorted(k int) []mat.Scored {
	buf := sel.buf
	if len(buf) > k {
		SelectTop(buf, k)
		buf = buf[:k]
	}
	out := slices.Clone(buf)
	slices.SortFunc(out, mat.Canonical)
	return out
}

// SelectTop reorders s so that s[:k] holds its k best items in the
// canonical order, with the k-th best at s[k-1]; 0 < k <= len(s). It is
// quickselect with a median-of-three pivot. Every partition step places
// its pivot for good, so the range shrinks each round and every index
// stays in bounds even if a NaN score makes the order inconsistent.
func SelectTop(s []mat.Scored, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if mat.Before(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if mat.Before(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
			if mat.Before(s[mid], s[lo]) {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		s[lo], s[mid] = s[mid], s[lo] // the median of three is the pivot
		p := partition(s, lo, hi)
		switch {
		case p > k-1:
			hi = p - 1
		case p < k-1:
			lo = p + 1
		default:
			return
		}
	}
}

// partition splits s[lo..hi] around the pivot s[lo] and returns the
// pivot's final index j: s[lo:j] rank before it and s[j+1:hi+1] do not.
// It is Lomuto's scheme without a data-dependent branch: every element is
// swapped to the store slot, and the slot advances only past one that
// ranks before the pivot (mat.Before, spelled out as arithmetic). Survivor
// scores arrive in random order, so a branch here would mispredict about
// half the time.
func partition(s []mat.Scored, lo, hi int) int {
	p := s[lo]
	store := lo + 1
	for i := lo + 1; i <= hi; i++ {
		x := s[i]
		s[i] = s[store]
		s[store] = x
		store += b2i(x.Score > p.Score) | b2i(x.Score == p.Score)&b2i(x.ID < p.ID)
	}
	j := store - 1
	s[lo], s[j] = s[j], s[lo]
	return j
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
