// Package flat implements the exact brute-force index: every query scans
// every stored vector. It is the BF variant of Table V — highest accuracy,
// latency linear in collection size — and the recall oracle the other
// indexes are tested against. The scan itself is the shared ann.Rows.TopK
// over the borrowed rows; flat adds nothing to it but a batch entry point.
//
// One optional fast path rides beside it. Params.Int8 scans the int8
// sidecar (quant.Int8Block, dim+4 bytes per row against the 4·dim of
// float32) into an over-fetched shortlist and re-scores the shortlist
// exactly, trading a planner-gated sliver of recall for a ~4× smaller
// stage-1 memory sweep.
package flat

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/mat"
	"repro/internal/quant"
)

// Index is an exact inner-product index over borrowed rows.
type Index struct {
	rows *ann.Rows
	i8   *quant.Int8Block
}

var _ ann.Index = (*Index)(nil)

// New returns a flat index over every row currently in rows.
func New(rows *ann.Rows) *Index {
	ix := &Index{rows: rows, i8: quant.NewInt8Block(rows.Dim())}
	for i := 0; i < rows.Len(); i++ {
		ix.Add(i)
	}
	return ix
}

// Kind implements ann.Index.
func (ix *Index) Kind() string { return "flat" }

// Len implements ann.Index.
func (ix *Index) Len() int { return ix.i8.Rows() }

// Add implements ann.Index. The int8 sidecar is maintained eagerly so that
// live inserts stay consistent without any rebuild step.
func (ix *Index) Add(row int) {
	if row != ix.Len() {
		panic(fmt.Sprintf("flat: Add row %d, want %d", row, ix.Len()))
	}
	ix.i8.Append(ix.rows.Row(row))
}

// int8Shortlist is the over-fetch rule for the int8 stage-1 scan: keep 2k
// candidates, at least 32, before the exact re-score. The floor protects
// small k, where quantization near-ties are proportionally most
// dangerous. 2k (rather than a wider net) matters for latency as much as
// recall: past the quantizer's ~1/254 relative error the extra
// candidates are never near the top-k boundary, while the shortlist heap
// and the exact re-score scale linearly with the over-fetch — at 4k they
// cost more than the int8 sweep saves.
func int8Shortlist(k int) int {
	if s := k * 2; s > 32 {
		return s
	}
	return 32
}

// Search implements ann.Index with the exact scan ann.Rows.TopK. With
// p.Int8 the stage-1 sweep runs over the int8 sidecar instead, and the
// shortlist is re-scored exactly — the returned scores are always exact
// float32 inner products.
func (ix *Index) Search(q mat.Vec, k int, p ann.Params) []mat.Scored {
	if p.Int8 && !p.Exhaustive {
		return ix.searchInt8(q, k)
	}
	return ix.rows.TopK(q, k)
}

// searchInt8 is the quantized stage-1 scan: int8 sweep → shortlist →
// exact re-score. The shortlist heap ranks ROW positions by int8 score;
// only the final, exactly re-scored results carry entity IDs.
func (ix *Index) searchInt8(q mat.Vec, k int) []mat.Scored {
	n := ix.Len()
	if k <= 0 || n == 0 {
		return nil
	}
	if len(q) != ix.rows.Dim() {
		panic(fmt.Sprintf("flat: query dim %d != index dim %d", len(q), ix.rows.Dim()))
	}
	qCode := make([]int8, len(q))
	qScale := quant.QuantizeInt8Into(qCode, q)
	top := mat.GetTopK(int8Shortlist(k))
	defer mat.PutTopK(top)
	scratch := mat.GetScratch(mat.ScanBlock)
	defer scratch.Release()
	thr := top.Threshold()
	for start := 0; start < n; start += mat.ScanBlock {
		end := min(start+mat.ScanBlock, n)
		scores := ix.i8.ScoreRowsInt8(scratch.Buf[:end-start], qScale, qCode, start, end)
		for i, s := range scores {
			if s < thr {
				continue
			}
			top.Push(int64(start+i), s)
			thr = top.Threshold()
		}
	}
	short := top.Sorted()
	out := make([]mat.Scored, 0, len(short))
	for _, s := range short {
		r := int(s.ID)
		out = append(out, mat.Scored{ID: ix.rows.ID(r), Score: mat.Dot(q, ix.rows.Row(r))})
	}
	mat.SortScoredDesc(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// SearchBatch answers len(qs) queries in one sweep over the rows
// (ann.Rows.TopKBatch), bit-identical to calling Search per query. With
// p.Int8 each query takes the quantized path independently — the int8
// sidecar is ~4× smaller than the float32 rows, so its sweep is rarely
// memory-bound and batching would buy little.
func (ix *Index) SearchBatch(qs []mat.Vec, k int, p ann.Params) [][]mat.Scored {
	if !p.Int8 || p.Exhaustive {
		return ix.rows.TopKBatch(qs, k)
	}
	out := make([][]mat.Scored, len(qs))
	for j, q := range qs {
		out[j] = ix.searchInt8(q, k)
	}
	return out
}

// Memory implements ann.Index: the int8 sidecar.
func (ix *Index) Memory() int64 { return int64(ix.i8.Memory()) }
