package flat

import (
	"math/rand/v2"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

// Microbenchmarks for the flat full scan. Run with
//
//	go test -bench . -run '^$' -benchmem ./internal/ann/flat/
//
// BenchmarkSearch* must report near-zero allocs/op: the scan runs on
// pooled scratch and a pooled top-k heap, allocating only the returned
// result slice. BenchmarkSearchReference* is the seed implementation —
// per-row subslice + scalar dot + a fresh heap per query — kept as the
// speedup baseline.

func benchIndex(n, dim int) (*Index, mat.Vec) {
	rng := rand.New(rand.NewPCG(42, 43))
	rows := ann.NewRows(dim)
	v := make(mat.Vec, dim)
	for i := 0; i < n; i++ {
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		rows.Append(int64(i), v)
	}
	ix := New(rows)
	q := make(mat.Vec, dim)
	for d := range q {
		q[d] = float32(rng.NormFloat64())
	}
	return ix, q
}

// referenceSearch is the seed's scan, preserved as the speedup baseline:
// per-row subslice, serial-order scalar dot, a fresh heap per query, no
// threshold gate. Its scalar reduction order differs from the canonical
// 4-lane order at the ULP level, so it is a performance baseline, not a
// bit-identity oracle (oracleSearch below is).
func referenceSearch(ix *Index, q mat.Vec, k int) []mat.Scored {
	if k <= 0 || ix.rows.Len() == 0 {
		return nil
	}
	top := mat.NewTopK(k)
	for i := 0; i < ix.rows.Len(); i++ {
		row := ix.rows.Row(i)
		var s float32
		for d, qv := range q {
			s += qv * row[d]
		}
		top.Push(ix.rows.ID(i), s)
	}
	return top.Sorted()
}

func BenchmarkSearch32d(b *testing.B)          { benchmarkSearch(b, 32, false) }
func BenchmarkSearch64d(b *testing.B)          { benchmarkSearch(b, 64, false) }
func BenchmarkSearchReference32d(b *testing.B) { benchmarkSearch(b, 32, true) }
func BenchmarkSearchReference64d(b *testing.B) { benchmarkSearch(b, 64, true) }

func benchmarkSearch(b *testing.B, dim int, reference bool) {
	const n, k = 20000, 100
	ix, q := benchIndex(n, dim)
	b.ReportAllocs()
	b.SetBytes(int64(4 * n * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reference {
			referenceSearch(ix, q, k)
		} else {
			ix.Search(q, k, ann.Params{})
		}
	}
}

// oracleSearch is the bit-identity oracle: one mat.Dot per row (the
// canonical reduction order) into a fresh heap, with no blocking, batching
// or threshold gating. The optimized Search must reproduce it exactly.
func oracleSearch(ix *Index, q mat.Vec, k int) []mat.Scored {
	top := mat.NewTopK(k)
	for i := 0; i < ix.rows.Len(); i++ {
		top.Push(ix.rows.ID(i), mat.Dot(q, ix.rows.Row(i)))
	}
	return top.Sorted()
}

func TestSearchBitIdenticalToOracle(t *testing.T) {
	ix, q := benchIndex(5000, 33) // odd dim: exercises the kernel tails
	got := ix.Search(q, 50, ann.Params{})
	want := oracleSearch(ix, q, 50)
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: kernel scan %v, oracle %v", i, got[i], want[i])
		}
	}
}
