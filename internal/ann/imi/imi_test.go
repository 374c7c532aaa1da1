package imi

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

const dim = 16

func build(t *testing.T, n int, cfg Config) *Index {
	t.Helper()
	rows := ann.NewRows(dim)
	for i := 0; i < n; i++ {
		rows.Append(int64(i+1), mat.UnitGaussianVec(dim, uint64(i)))
	}
	ix, err := Build(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestInvertedListsPartitionEverything(t *testing.T) {
	// Within each subspace, the inverted lists must partition the id set:
	// every vector appears exactly once per subspace.
	ix := build(t, 500, Config{P: 4, M: 16, Seed: 2})
	for sp := range ix.lists {
		seen := map[int64]int{}
		total := 0
		for _, l := range ix.lists[sp] {
			for _, pos := range l {
				seen[ix.rows.ID(int(pos))]++
				total++
			}
		}
		if total != 500 {
			t.Fatalf("subspace %d lists hold %d entries, want 500", sp, total)
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("subspace %d: id %d appears %d times", sp, id, c)
			}
		}
	}
}

func TestCodesMatchListMembership(t *testing.T) {
	ix := build(t, 300, Config{P: 4, M: 16, Seed: 3})
	for pos := int32(0); int(pos) < ix.Len(); pos++ {
		id := ix.rows.ID(int(pos))
		for sp, m := range ix.codeAt(pos) {
			found := false
			for _, lpos := range ix.lists[sp][m] {
				if lpos == pos {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("id %d coded to (sp=%d,m=%d) but missing from that list", id, sp, m)
			}
		}
	}
}

func TestCellCountBounded(t *testing.T) {
	ix := build(t, 400, Config{P: 4, M: 8, Seed: 4})
	cells := ix.CellCount()
	if cells < 2 || cells > 400 {
		t.Fatalf("cells = %d", cells)
	}
}

func TestLargerAWidensCandidates(t *testing.T) {
	ix := build(t, 800, Config{P: 4, M: 32, Seed: 5})
	q := mat.UnitGaussianVec(dim, 999)
	small := ix.Search(q, 400, ann.Params{NProbe: 1})
	large := ix.Search(q, 400, ann.Params{NProbe: 32})
	if len(large) < len(small) {
		t.Fatalf("more probes must not shrink the candidate pool: %d vs %d", len(small), len(large))
	}
}

func TestExhaustiveCoversAll(t *testing.T) {
	ix := build(t, 200, Config{P: 4, M: 8, Seed: 6})
	q := mat.UnitGaussianVec(dim, 31)
	res := ix.Search(q, 200, ann.Params{Exhaustive: true})
	if len(res) != 200 {
		t.Fatalf("exhaustive must score everything: %d", len(res))
	}
}
