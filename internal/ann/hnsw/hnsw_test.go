package hnsw

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

const dim = 16

func filled(t *testing.T, n int, cfg Config) *Index {
	t.Helper()
	rows := ann.NewRows(dim)
	for i := 0; i < n; i++ {
		rows.Append(int64(i+1), mat.UnitGaussianVec(dim, uint64(i)))
	}
	return New(rows, cfg)
}

func TestLevelDistributionGeometric(t *testing.T) {
	// Levels must decay roughly geometrically: level-0 nodes dominate and
	// counts shrink by ~M per level.
	h := filled(t, 2000, Config{M: 16, Seed: 3})
	counts := map[int]int{}
	for i := range h.nodes {
		counts[h.nodes[i].level]++
	}
	if counts[0] < 1700 {
		t.Fatalf("level-0 should dominate: %v", counts)
	}
	if counts[1] == 0 {
		t.Fatalf("expected some level-1 nodes: %v", counts)
	}
	if counts[1] > counts[0]/4 {
		t.Fatalf("level-1 too populous: %v", counts)
	}
}

func TestDegreeBounds(t *testing.T) {
	h := filled(t, 800, Config{M: 8, EfConstruction: 60, Seed: 4})
	for i := range h.nodes {
		for l, links := range h.nodes[i].links {
			maxD := h.maxDegree(l)
			if len(links) > maxD {
				t.Fatalf("node %d level %d degree %d exceeds bound %d", i, l, len(links), maxD)
			}
			for _, nb := range links {
				if nb == int32(i) {
					t.Fatalf("node %d links to itself", i)
				}
			}
		}
	}
}

func TestGroundLayerReachability(t *testing.T) {
	// Every node must be reachable from the entry point on level 0 —
	// otherwise it can never be returned by a search.
	h := filled(t, 600, Config{M: 12, EfConstruction: 80, Seed: 5})
	visited := make([]bool, len(h.nodes))
	stack := []int32{h.entry}
	visited[h.entry] = true
	reached := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range h.linksAt(cur, 0) {
			if !visited[nb] {
				visited[nb] = true
				reached++
				stack = append(stack, nb)
			}
		}
	}
	// Directed reachability; allow a tiny number of stragglers.
	if reached < len(h.nodes)*98/100 {
		t.Fatalf("only %d/%d nodes reachable on the ground layer", reached, len(h.nodes))
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := filled(t, 300, Config{M: 8, Seed: 6})
	b := filled(t, 300, Config{M: 8, Seed: 6})
	q := mat.UnitGaussianVec(dim, 12345)
	ra := a.Search(q, 10, ann.Params{Ef: 64})
	rb := b.Search(q, 10, ann.Params{Ef: 64})
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			t.Fatalf("rank %d differs: %d vs %d", i, ra[i].ID, rb[i].ID)
		}
	}
}

func TestEfImprovesRecall(t *testing.T) {
	h := filled(t, 1500, Config{M: 8, EfConstruction: 40, Seed: 7})
	exact := func(q mat.Vec, k int) map[int64]bool {
		out := map[int64]bool{}
		for _, s := range h.Search(q, k, ann.Params{Exhaustive: true}) {
			out[s.ID] = true
		}
		return out
	}
	recall := func(ef int) float64 {
		var total float64
		const queries = 10
		for i := 0; i < queries; i++ {
			q := mat.UnitGaussianVec(dim, uint64(9000+i))
			want := exact(q, 10)
			hit := 0
			for _, s := range h.Search(q, 10, ann.Params{Ef: ef}) {
				if want[s.ID] {
					hit++
				}
			}
			total += float64(hit) / float64(len(want))
		}
		return total / queries
	}
	lo, hi := recall(10), recall(200)
	if hi < lo {
		t.Fatalf("recall must not degrade with ef: lo=%v hi=%v", lo, hi)
	}
	if hi < 0.9 {
		t.Fatalf("high-ef recall too low: %v", hi)
	}
}

func TestSearchAfterSingleInsert(t *testing.T) {
	rows := ann.NewRows(dim)
	h := New(rows, Config{})
	v := mat.UnitGaussianVec(dim, 1)
	row, _ := rows.Append(7, v)
	h.Add(row)
	res := h.Search(v, 3, ann.Params{})
	if len(res) != 1 || res[0].ID != 7 {
		t.Fatalf("res = %v", res)
	}
}

// TestDegenerateMClamps: M = 1 would make the level multiplier 1/ln M
// infinite; it clamps to 2 and still builds a searchable graph.
func TestDegenerateMClamps(t *testing.T) {
	h := filled(t, 50, Config{M: 1, Seed: 8})
	if h.cfg.M != 2 {
		t.Fatalf("M = %d, want 2", h.cfg.M)
	}
	q := mat.UnitGaussianVec(dim, 3) // row 3 holds id 4
	if res := h.Search(q, 1, ann.Params{Ef: 50}); len(res) != 1 || res[0].ID != 4 {
		t.Fatalf("res = %v", res)
	}
}
