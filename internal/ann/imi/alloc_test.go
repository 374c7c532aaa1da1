//go:build !race

package imi

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

// TestSearchAllocs bounds a steady-state approximate Search on a 512-row
// index: one S_A list per subspace and the answer. The vote array and the
// candidate list come from a pool, so a Search that stops reusing them
// allocates more. (The race detector makes sync.Pool drop items at random,
// hence the build tag.)
func TestSearchAllocs(t *testing.T) {
	ix := build(t, 512, Config{P: 4, M: 64, Seed: 7})
	q := mat.UnitGaussianVec(dim, 99)
	for _, k := range []int{100, 5} { // a shortlist that holds every candidate, and one that does not
		prm := ann.Params{NProbe: 8}
		ix.Search(q, k, prm)
		allocs := testing.AllocsPerRun(50, func() { ix.Search(q, k, prm) })
		if want := float64(ix.pq.P + 1); allocs > want {
			t.Fatalf("k=%d: %v allocations per Search, want <= %v", k, allocs, want)
		}
	}
}
