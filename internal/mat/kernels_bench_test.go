package mat

import (
	"math/rand/v2"
	"testing"
)

// Microbenchmarks for the scoring kernels. Run with
//
//	go test -bench . -run '^$' -benchmem ./internal/mat/
//
// allocs/op must stay at zero for every kernel here — these are the inner
// loops of both query stages.

func benchVec(n int, seed uint64) Vec {
	rng := rand.New(rand.NewPCG(seed, seed^0xb))
	v := make(Vec, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func BenchmarkDot32(b *testing.B)  { benchmarkDot(b, 32) }
func BenchmarkDot64(b *testing.B)  { benchmarkDot(b, 64) }
func BenchmarkDot256(b *testing.B) { benchmarkDot(b, 256) }

func benchmarkDot(b *testing.B, n int) {
	x, y := benchVec(n, 1), benchVec(n, 2)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n))
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

func BenchmarkScoreRows32x1024(b *testing.B) { benchmarkScoreRows(b, 32, 1024) }
func BenchmarkScoreRows64x1024(b *testing.B) { benchmarkScoreRows(b, 64, 1024) }

// BenchmarkScoreRows128x1024 is the compute-bound width: at 128d the lanes
// spend their time multiplying rather than folding, so this is where the
// avx2 tier's lead over sse2 shows whole.
func BenchmarkScoreRows128x1024(b *testing.B) { benchmarkScoreRows(b, 128, 1024) }

func benchmarkScoreRows(b *testing.B, dim, rows int) {
	q := benchVec(dim, 3)
	block := benchVec(dim*rows, 4)
	dst := make([]float32, rows)
	b.ReportAllocs()
	b.SetBytes(int64(4 * dim * rows))
	for i := 0; i < b.N; i++ {
		ScoreRows(dst, q, block, dim)
	}
}

func BenchmarkMatMulT64(b *testing.B) {
	x := &Matrix{Rows: 64, Cols: 64, Data: benchVec(64*64, 7)}
	y := &Matrix{Rows: 64, Cols: 64, Data: benchVec(64*64, 8)}
	dst := NewMatrix(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTInto(dst, x, y)
	}
}

// BenchmarkGELU runs GELU over one feed-forward activation of the rerank
// transformer: 48 region tokens × 64 hidden units.
func BenchmarkGELU(b *testing.B) {
	in := benchVec(48*64, 12)
	v := make(Vec, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, in)
		GELU(v)
	}
}

func BenchmarkSqDist32(b *testing.B) {
	x, y := benchVec(32, 9), benchVec(32, 10)
	b.ReportAllocs()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += SqDist(x, y)
	}
	_ = sink
}

func BenchmarkTopKPooled(b *testing.B) {
	scores := benchVec(1024, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top := GetTopK(100)
		for j, s := range scores {
			top.Push(int64(j), s)
		}
		PutTopK(top)
	}
}

func BenchmarkArenaMatrixCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ar := GetArena()
		_ = ar.Matrix(16, 64)
		_ = ar.Vec(64)
		ar.Release()
	}
}
