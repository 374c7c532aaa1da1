// Package ivfpq implements the inverted-file index with product-quantized
// residuals (IVF-PQ), the quantization-based variant of Table V: a coarse
// k-means quantizer routes vectors into NList inverted lists; within a list
// a vector is stored as the PQ code of its residual against the list
// centroid. Search probes the NProbe closest lists, scores candidates as
// coarse-similarity + residual ADC and re-scores a 4k shortlist exactly
// against the borrowed ann.Rows; Params.Exhaustive is the shared
// ann.Rows.TopK scan.
//
// Lists are structure-of-arrays — parallel row-position and packed-code
// slices — so a probed list scans as one quant.ApproxDotBatch pass over
// contiguous codes; coarse centroids are likewise stored row-major for the
// blocked scoring kernels.
package ivfpq

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/mat"
	"repro/internal/quant"
)

// Config shapes index construction.
type Config struct {
	// NList is the number of coarse clusters; zero defaults to
	// max(1, sqrt(n)) at build time.
	NList int
	// P and M are the residual product quantizer's subspace count and
	// per-subspace centroid count; zero defaults to 8 and 64.
	P, M int
	// Seed drives codebook training.
	Seed uint64
}

func (c Config) withDefaults(n int) Config {
	if c.NList <= 0 {
		c.NList = isqrt(n)
		if c.NList < 1 {
			c.NList = 1
		}
	}
	if c.P == 0 {
		c.P = 8
	}
	if c.M == 0 {
		c.M = 64
	}
	return c
}

func isqrt(n int) int {
	i := 1
	for i*i < n {
		i++
	}
	return i
}

// list is one inverted list in structure-of-arrays layout: row position
// rows[i] pairs with the packed code row codes[i*P:(i+1)*P] and the int8
// sidecar row i8.Row(i). The sidecar quantizes the ORIGINAL vector (not
// the residual), so Params.Int8 can score q·v directly without the coarse
// term.
type list struct {
	rows  []int32
	codes []uint16
	i8    *quant.Int8Block
}

// Index is a built IVF-PQ index over borrowed rows.
type Index struct {
	rows       *ann.Rows
	coarse     []mat.Vec // NList centroids, rows aliasing coarseFlat
	coarseFlat []float32
	lists      []list
	pq         *quant.PQ
	count      int
}

var _ ann.Index = (*Index)(nil)

// Build trains the coarse quantizer and residual PQ on every row currently
// in rows and indexes them.
func Build(rows *ann.Rows, cfg Config) (*Index, error) {
	if rows.Len() == 0 {
		return nil, quant.ErrNotEnoughData
	}
	cfg = cfg.withDefaults(rows.Len())
	dim := rows.Dim()
	vecs := make([]mat.Vec, rows.Len())
	for i := range vecs {
		vecs[i] = rows.Row(i)
	}

	km := quant.KMeans(vecs, cfg.NList, 25, cfg.Seed^0x19f0)
	nlist := len(km.Centroids)

	// Residuals train the PQ.
	residuals := make([]mat.Vec, len(vecs))
	for i, v := range vecs {
		r := mat.NewVec(dim)
		mat.Sub(r, v, km.Centroids[km.Assign[i]])
		residuals[i] = r
	}
	m := cfg.M
	if len(vecs) < m {
		m = len(vecs)
	}
	pq, err := quant.TrainPQ(residuals, cfg.P, m, cfg.Seed^0x70f1)
	if err != nil {
		return nil, fmt.Errorf("ivfpq: training residual PQ: %w", err)
	}

	ix := &Index{
		rows:       rows,
		coarse:     make([]mat.Vec, nlist),
		coarseFlat: make([]float32, nlist*dim),
		lists:      make([]list, nlist),
		pq:         pq,
	}
	for li, c := range km.Centroids {
		off := li * dim
		copy(ix.coarseFlat[off:off+dim], c)
		ix.coarse[li] = ix.coarseFlat[off : off+dim : off+dim]
		ix.lists[li].i8 = quant.NewInt8Block(dim)
	}
	code := make(quant.Code, pq.P)
	for i, v := range vecs {
		pq.EncodeInto(code, residuals[i])
		ix.insert(km.Assign[i], i, code, v)
	}
	return ix, nil
}

// insert files row into list li with its residual code.
func (ix *Index) insert(li, row int, code quant.Code, v mat.Vec) {
	l := &ix.lists[li]
	l.rows = append(l.rows, int32(row))
	l.codes = append(l.codes, code...)
	l.i8.Append(v)
	ix.count++
}

// Kind implements ann.Index.
func (ix *Index) Kind() string { return "ivfpq" }

// Len implements ann.Index.
func (ix *Index) Len() int { return ix.count }

// Add implements ann.Index: the vector is routed to its nearest list and
// residual-encoded with the already-trained codebooks (the paper's future
// work discusses incremental insertion; assignment without retraining is
// the standard approach).
func (ix *Index) Add(row int) {
	if row != ix.count {
		panic(fmt.Sprintf("ivfpq: Add row %d, want %d", row, ix.count))
	}
	v := ix.rows.Row(row)
	li := quant.NearestCentroid(ix.coarse, v)
	r := mat.NewVec(len(v))
	mat.Sub(r, v, ix.coarse[li])
	code := make(quant.Code, ix.pq.P)
	ix.pq.EncodeInto(code, r)
	ix.insert(li, row, code, v)
}

// Search implements ann.Index.
func (ix *Index) Search(q mat.Vec, k int, p ann.Params) []mat.Scored {
	if k <= 0 || ix.count == 0 {
		return nil
	}
	if p.Exhaustive {
		return ix.rows.TopK(q, k)
	}
	nprobe := p.NProbe
	if nprobe <= 0 {
		nprobe = len(ix.coarse)/8 + 1
	}
	nprobe = min(nprobe, len(ix.coarse))

	// Rank coarse lists by query similarity: one blocked kernel pass over
	// the contiguous centroid block.
	cscratch := mat.GetScratch(len(ix.coarse))
	coarseSims := mat.ScoreRows(cscratch.Buf, q, ix.coarseFlat, ix.rows.Dim())
	listTop := mat.GetTopK(nprobe)
	for li, s := range coarseSims {
		listTop.Push(int64(li), s)
	}
	cscratch.Release()

	// Params.Int8 swaps the per-candidate stage-1 scorer: instead of
	// coarse + residual ADC, score q·v directly over each probed list's
	// int8 sidecar. The shortlist/refinement machinery downstream is
	// shared.
	useInt8 := p.Int8
	var qCode []int8
	var qScale float32
	var table quant.Table
	tscratch := mat.GetScratch(ix.pq.TableLen())
	defer tscratch.Release()
	if useInt8 {
		qCode = make([]int8, len(q))
		qScale = quant.QuantizeInt8Into(qCode, q)
	} else {
		table = ix.pq.DotTableInto(tscratch.Buf, q)
	}

	top := mat.GetTopK(k * 4) // over-fetch for the exact refinement
	defer mat.PutTopK(top)
	sscratch := mat.GetScratch(0)
	defer func() { sscratch.Release() }() // sscratch may be regrown below
	for _, sc := range listTop.Sorted() {
		l := &ix.lists[sc.ID]
		if len(l.rows) == 0 {
			continue
		}
		if cap(sscratch.Buf) < len(l.rows) {
			sscratch.Release()
			sscratch = mat.GetScratch(len(l.rows))
		}
		// Approximate scores, one batch pass per probed list: either
		// coarse + residual ADC (Algorithm 1, line 10) or the int8
		// sidecar's direct q·v approximation.
		var scores []float32
		if useInt8 {
			scores = l.i8.ScoreRowsInt8(sscratch.Buf[:len(l.rows)], qScale, qCode, 0, len(l.rows))
		} else {
			scores = ix.pq.ApproxDotBatch(sscratch.Buf[:len(l.rows)], table, l.codes, sc.Score)
		}
		for i, s := range scores {
			top.Push(ix.rows.ID(int(l.rows[i])), s)
		}
	}
	mat.PutTopK(listTop)
	short := top.Sorted()
	// Exact re-scoring of the shortlist (Algorithm 1, lines 13–17).
	out := make([]mat.Scored, 0, len(short))
	for _, s := range short {
		pos, _ := ix.rows.Pos(s.ID)
		out = append(out, mat.Scored{ID: s.ID, Score: mat.Dot(q, ix.rows.Row(pos))})
	}
	mat.SortScoredDesc(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Memory implements ann.Index: centroids + row positions + codes + int8
// sidecars + codebooks.
func (ix *Index) Memory() int64 {
	b := int64(len(ix.coarseFlat)) * 4
	for _, l := range ix.lists {
		b += int64(len(l.rows))*4 + int64(len(l.codes))*2
		b += int64(l.i8.Memory())
	}
	b += int64(ix.pq.P*len(ix.pq.Codebooks[0])*ix.pq.SubDim) * 4
	return b
}

// Lists returns the number of coarse lists (for tests and stats).
func (ix *Index) Lists() int { return len(ix.coarse) }
