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
// addressed by the dense row position of the borrowed ann.Rows, so the ADC
// scan is strided loads against the flat lookup table instead of
// map-and-slice pointer chasing, and the exact re-score reads the
// collection's own rows. Params.Exhaustive is the shared ann.Rows.TopK
// scan: every vote would be P, so the vote never breaks a tie there.
package imi

import (
	"fmt"
	"sort"

	"repro/internal/ann"
	"repro/internal/mat"
	"repro/internal/quant"
)

// Config shapes the multi-index.
type Config struct {
	// P is the number of subspaces; zero defaults to 4.
	P int
	// M is the number of centroids per subspace; zero defaults to 64
	// (clipped to the training-set size).
	M int
	// Seed drives codebook training.
	Seed uint64
}

func (c Config) withDefaults(n int) Config {
	if c.P == 0 {
		c.P = 4
	}
	if c.M == 0 {
		c.M = 64
	}
	if c.M > n {
		c.M = n
	}
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
		ix.Add(i)
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

// Add implements ann.Index. Rows added after Build are coded with the
// existing codebooks.
func (ix *Index) Add(row int) {
	if row != ix.Len() {
		panic(fmt.Sprintf("imi: Add row %d, want %d", row, ix.Len()))
	}
	p := int32(row)
	ix.packed = append(ix.packed, make([]uint16, ix.pq.P)...)
	ix.pq.EncodeInto(ix.codeAt(p), ix.rows.Row(row))
	for sp, m := range ix.codeAt(p) {
		ix.lists[sp][m] = append(ix.lists[sp][m], p)
	}
}

// Search implements ann.Index following Algorithm 1.
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
	votes := make(map[int32]int)
	a := p.NProbe
	if a <= 0 {
		a = 8
	}
	for sp := 0; sp < ix.pq.P; sp++ {
		row := table.Row(sp)
		topA := mat.GetTopK(min(a, len(row)))
		for m, s := range row {
			topA.Push(int64(m), s)
		}
		for _, c := range topA.Sorted() { // line 6: S_A
			for _, pos := range ix.lists[sp][c.ID] {
				votes[pos]++
			}
		}
		mat.PutTopK(topA)
	}

	// Score candidates by ADC (lines 8–11) into a 4k shortlist for the
	// exact re-score. The top-k heap is keyed by id (the canonical
	// determinism order), while scoring addresses packed codes by dense
	// position.
	top := mat.GetTopK(k * 4)
	defer mat.PutTopK(top)
	for pos := range votes {
		top.Push(ix.rows.ID(int(pos)), ix.pq.ApproxDotPacked(table, ix.codeAt(pos)))
	}
	short := top.Sorted()

	// Exact re-scoring (lines 13–17) with the patch-ID vote as the
	// tie-break: more subspace agreement ranks first. Votes are resolved
	// once per entry so the comparator does no map lookups.
	out := make([]mat.Scored, 0, len(short))
	outVotes := make([]int, 0, len(short))
	for _, s := range short {
		pos, _ := ix.rows.Pos(s.ID)
		out = append(out, mat.Scored{ID: s.ID, Score: mat.Dot(q, ix.rows.Row(pos))})
		outVotes = append(outVotes, votes[int32(pos)])
	}
	sort.Sort(&byScoreVoteID{out, outVotes})
	if len(out) > k {
		out = out[:k]
	}
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

// byScoreVoteID sorts shortlist entries by descending score, then
// descending subspace-agreement vote, then ascending ID; votes moves in
// lockstep with items.
type byScoreVoteID struct {
	items []mat.Scored
	votes []int
}

func (s *byScoreVoteID) Len() int { return len(s.items) }

func (s *byScoreVoteID) Less(i, j int) bool {
	if s.items[i].Score != s.items[j].Score {
		return s.items[i].Score > s.items[j].Score
	}
	if s.votes[i] != s.votes[j] {
		return s.votes[i] > s.votes[j]
	}
	return s.items[i].ID < s.items[j].ID
}

func (s *byScoreVoteID) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.votes[i], s.votes[j] = s.votes[j], s.votes[i]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
