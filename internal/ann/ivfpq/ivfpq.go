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
// rows[i] pairs with the packed code row codes[i*P:(i+1)*P].
type list struct {
	rows  []int32
	codes []uint16
}

// Index is a built IVF-PQ index over borrowed rows.
type Index struct {
	rows       *ann.Rows
	coarseFlat []float32 // the NList centroids, row-major; list li is centroid li's
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
		coarseFlat: make([]float32, nlist*dim),
		lists:      make([]list, nlist),
		pq:         pq,
	}
	for li, c := range km.Centroids {
		copy(ix.coarseFlat[li*dim:], c)
	}
	code := make(quant.Code, pq.P)
	for i, r := range residuals {
		pq.EncodeInto(code, r)
		ix.insert(km.Assign[i], i, code)
	}
	return ix, nil
}

// insert files row into list li with its residual code.
func (ix *Index) insert(li, row int, code quant.Code) {
	l := &ix.lists[li]
	l.rows = append(l.rows, int32(row))
	l.codes = append(l.codes, code...)
	ix.count++
}

// Kind implements ann.Index.
func (ix *Index) Kind() string { return "ivfpq" }

// Len implements ann.Index.
func (ix *Index) Len() int { return ix.count }

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
		nprobe = len(ix.lists)/8 + 1
	}
	nprobe = min(nprobe, len(ix.lists))

	// Rank coarse lists by query similarity: one blocked kernel pass over
	// the contiguous centroid block.
	cscratch := mat.GetScratch(len(ix.lists))
	coarseSims := mat.ScoreRows(cscratch.Buf, q, ix.coarseFlat, ix.rows.Dim())
	listTop := mat.GetTopK(nprobe)
	for li, s := range coarseSims {
		listTop.Push(int64(li), s)
	}
	cscratch.Release()

	tscratch := mat.GetScratch(ix.pq.TableLen())
	defer tscratch.Release()
	table := ix.pq.DotTableInto(tscratch.Buf, q)

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
		// Approximate scores, one batch pass per probed list: coarse +
		// residual ADC (Algorithm 1, line 10).
		scores := ix.pq.ApproxDotBatch(sscratch.Buf[:len(l.rows)], table, l.codes, sc.Score)
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

// Memory implements ann.Index: centroids + row positions + codes +
// codebooks.
func (ix *Index) Memory() int64 {
	b := int64(len(ix.coarseFlat)) * 4
	for _, l := range ix.lists {
		b += int64(len(l.rows))*4 + int64(len(l.codes))*2
	}
	b += int64(ix.pq.P*len(ix.pq.Codebooks[0])*ix.pq.SubDim) * 4
	return b
}

// Lists returns the number of coarse lists (for tests and stats).
func (ix *Index) Lists() int { return len(ix.lists) }
