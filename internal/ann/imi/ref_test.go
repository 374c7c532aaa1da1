package imi

import (
	"sort"

	"repro/internal/ann"
	"repro/internal/mat"
)

// refSearch is the map-based approximate Search that the dense-vote path
// replaced, kept verbatim as the oracle its answers must equal bit for bit:
// a votes map, a 4k TopK heap over every candidate's ADC score, a Rows.Pos
// lookup per shortlisted ID and sort.Sort over two parallel slices.
func refSearch(ix *Index, q mat.Vec, k int, p ann.Params) []mat.Scored {
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
