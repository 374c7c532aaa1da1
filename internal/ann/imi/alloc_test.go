//go:build !race

package imi

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

// TestSearchAllocs bounds a steady-state approximate Search on a 512-row
// index to one allocation: the answer. The vote array, the candidate list
// and each subspace's S_A collector come from pools, and S_A is read in
// place, so a Search that stops reusing any of them allocates more. (The race detector makes sync.Pool drop items at random,
// hence the build tag.)
func TestSearchAllocs(t *testing.T) {
	ix := build(t, 512, Config{P: 4, M: 64, Seed: 7})
	q := mat.UnitGaussianVec(dim, 99)
	for _, k := range []int{100, 5} { // a shortlist that holds every candidate, and one that does not
		prm := ann.Params{NProbe: 8}
		ix.Search(q, k, prm)
		allocs := testing.AllocsPerRun(50, func() { ix.Search(q, k, prm) })
		if want := 1.0; allocs > want {
			t.Fatalf("k=%d: %v allocations per Search, want <= %v", k, allocs, want)
		}
	}
}
