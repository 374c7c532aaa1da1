// Package imi implements the inverted multi-index of Section V-B and the
// approximate nearest-neighbour search of Algorithm 1.
//
// The class-embedding space R^D′ is split into P subspaces; each subspace
// is quantized into M centroids by product quantization. A vector's cell is
// the Cartesian tuple of its per-subspace codes; only non-empty cells are
// materialised, and per-subspace inverted lists map a centroid to the
// vectors coded onto it. A query is partitioned the same way; the Top-A
// centroids per subspace select candidate lists, candidates are scored
// through the residual lookup table (ADC), the top shortlist is re-scored
// exactly (s_exact = Σ_p [q]_p·[c′_a]_p), and ties are broken by the
// patch-ID vote of Algorithm 1 line 16 — candidates assembled from more
// agreeing subspaces rank first.
//
// Codes are stored packed (one contiguous []uint16 with stride P) and
// addressed by the dense row position of the borrowed ann.Rows. A query's
// votes are a pooled dense array over positions, read in one linear pass;
// ADC runs only when the candidates outnumber the shortlist, and the exact
// re-score reads the collection's own rows. Params.Exhaustive is the shared
// ann.Rows.TopK scan: every vote would be P, so the vote never breaks a tie.
package imi

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ann"
	"repro/internal/mat"
	"repro/internal/quant"
)

// Config shapes the multi-index.
type Config struct {
	// P is the number of subspaces, at most 255; zero defaults to 4.
	P int
	// M is the number of centroids per subspace; zero defaults to 64
	// (clipped to the training-set size).
	M int
	// Seed drives codebook training.
	Seed uint64
}

func (c Config) withDefaults(n int) Config {
	c.P, c.M = cmp.Or(c.P, 4), min(cmp.Or(c.M, 64), n)
	return c
}

// Index is a built inverted multi-index over borrowed rows.
type Index struct {
	rows *ann.Rows
	pq   *quant.PQ
	// packed holds every row's PQ code back to back with stride P.
	packed []uint16
	// lists[p][m] holds the positions of rows whose subspace-p code is m;
	// dense positions keep the candidate scan free of map lookups.
	lists [][][]int32
}

var _ ann.Index = (*Index)(nil)

// Build trains the subspace codebooks on every row currently in rows and
// indexes them.
func Build(rows *ann.Rows, cfg Config) (*Index, error) {
	n := rows.Len()
	if n == 0 {
		return nil, quant.ErrNotEnoughData
	}
	cfg = cfg.withDefaults(n)
	if cfg.P > 255 {
		return nil, fmt.Errorf("imi: P=%d exceeds the 255 subspaces a uint8 vote counts", cfg.P)
	}
	vecs := make([]mat.Vec, n)
	for i := range vecs {
		vecs[i] = rows.Row(i)
	}
	pq, err := quant.TrainPQ(vecs, cfg.P, cfg.M, cfg.Seed^0x1a11)
	if err != nil {
		return nil, fmt.Errorf("imi: training codebooks: %w", err)
	}
	ix := &Index{rows: rows, pq: pq, lists: make([][][]int32, pq.P)}
	for p := range ix.lists {
		ix.lists[p] = make([][]int32, len(pq.Codebooks[p]))
	}
	for i := range vecs {
		ix.add(i)
	}
	return ix, nil
}

// Kind implements ann.Index.
func (ix *Index) Kind() string { return "imi" }

// Len implements ann.Index.
func (ix *Index) Len() int { return len(ix.packed) / ix.pq.P }

// codeAt returns the packed code row at position p.
func (ix *Index) codeAt(p int32) []uint16 {
	off := int(p) * ix.pq.P
	return ix.packed[off : off+ix.pq.P : off+ix.pq.P]
}

// add codes row with the trained codebooks and files it in its cells — the
// build step Build runs for every row in order.
func (ix *Index) add(row int) {
	if row != ix.Len() {
		panic(fmt.Sprintf("imi: add row %d, want %d", row, ix.Len()))
	}
	p := int32(row)
	ix.packed = append(ix.packed, make([]uint16, ix.pq.P)...)
	ix.pq.EncodeInto(ix.codeAt(p), ix.rows.Row(row))
	for sp, m := range ix.codeAt(p) {
		ix.lists[sp][m] = append(ix.lists[sp][m], p)
	}
}

// cand is a candidate row carried by position, so no step maps an ID back
// to its row; its score is ADC while the shortlist is selected, exact after.
type cand struct {
	mat.Scored
	pos   int32
	votes uint8
}

// scratch is a Search's pooled working set; votes is all zero between uses.
type scratch struct {
	votes []uint8
	cands []cand
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Search implements ann.Index following Algorithm 1. At most 4k candidates
// are the whole shortlist and skip ADC: the answer's (score, vote, ID) order
// is total, so the shortlist's own order never reaches it.
func (ix *Index) Search(q mat.Vec, k int, p ann.Params) []mat.Scored {
	if k <= 0 || ix.Len() == 0 {
		return nil
	}
	if p.Exhaustive {
		return ix.rows.TopK(q, k)
	}
	tscratch := mat.GetScratch(ix.pq.TableLen())
	defer tscratch.Release()
	table := ix.pq.DotTableInto(tscratch.Buf, q) // lines 2–5: subspace centroid similarities

	// Candidate gathering. votes[pos] counts how many subspaces proposed
	// the vector — the agreement statistic behind the patch-ID vote.
	sc := scratchPool.Get().(*scratch)
	if len(sc.votes) < ix.Len() {
		sc.votes = make([]uint8, ix.Len())
	}
	votes, cands := sc.votes[:ix.Len()], sc.cands[:0]
	a := cmp.Or(max(p.NProbe, 0), 8) // A, the centroids probed per subspace
	for sp := 0; sp < ix.pq.P; sp++ {
		row := table.Row(sp)
		topA := mat.GetTopK(min(a, len(row)))
		for m, s := range row {
			topA.Push(int64(m), s)
		}
		for _, c := range topA.Items() { // line 6: S_A; votes count the set, in any order
			for _, pos := range ix.lists[sp][c.ID] {
				votes[pos]++
			}
		}
		mat.PutTopK(topA)
	}
	for pos, v := range votes { // in position order, zeroing what it takes
		if v != 0 {
			cands = append(cands, cand{mat.Scored{ID: ix.rows.ID(pos)}, int32(pos), v})
			votes[pos] = 0
		}
	}

	// Beyond 4k candidates, score them by ADC (lines 8–11) and keep the 4k
	// best in the canonical (score, ID) order: the set a 4k heap retains.
	if len(cands) > 4*k {
		top := mat.GetTopK(4 * k)
		defer mat.PutTopK(top)
		for i, c := range cands {
			cands[i].Score = ix.pq.ApproxDotPacked(table, ix.codeAt(c.pos))
			top.Push(c.ID, cands[i].Score)
		}
		cands = slices.DeleteFunc(cands, func(c cand) bool { return mat.Before(top.Worst(), c.Scored) })
	}

	// Exact re-scoring (lines 13–17) with the patch-ID vote as the
	// tie-break: more subspace agreement ranks first.
	for i, c := range cands {
		cands[i].Score = mat.Dot(q, ix.rows.Row(int(c.pos)))
	}
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.Score != b.Score:
			return cmp.Compare(b.Score, a.Score)
		case a.votes != b.votes:
			return int(b.votes) - int(a.votes)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	out := make([]mat.Scored, min(k, len(cands)))
	for i := range out {
		out[i] = cands[i].Scored
	}
	sc.cands = cands[:0]
	scratchPool.Put(sc)
	return out
}

// Memory implements ann.Index: codes, lists and codebooks.
func (ix *Index) Memory() int64 {
	b := int64(len(ix.packed)) * 2 // codes
	for _, sub := range ix.lists {
		for _, l := range sub {
			b += int64(len(l)) * 4 // int32 positions
		}
	}
	b += int64(ix.pq.P*len(ix.pq.Codebooks[0])*ix.pq.SubDim) * 4
	return b
}

// CellCount returns the number of distinct non-empty cells (code tuples);
// exported for stats and tests.
func (ix *Index) CellCount() int {
	cells := make(map[string]struct{}, ix.Len())
	buf := make([]byte, 2*ix.pq.P)
	for p := 0; p < ix.Len(); p++ {
		for i, m := range ix.codeAt(int32(p)) {
			buf[2*i] = byte(m)
			buf[2*i+1] = byte(m >> 8)
		}
		cells[string(buf)] = struct{}{}
	}
	return len(cells)
}
