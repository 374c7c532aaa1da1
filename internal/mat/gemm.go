// GEMM micro-kernel tier.
//
// Gemm is the one matrix-product entry point: dst[m×n] = a[m×k]·b[k×n],
// every operand a row-major block with its own row stride, so callers
// multiply sub-blocks of wider matrices (an attention head's columns) in
// place instead of copying them out and back.
//
// The reduction contract is per output element: out[i][j] starts at +0 and
// adds a[i][0]·b[0][j], a[i][1]·b[1][j], … in increasing k, each product
// rounded to float32 before it is added (two roundings per step — never a
// fused multiply-add). SIMD lanes and register tiles only ever hold
// DIFFERENT output elements, so every implementation below is bit-identical
// to the naive triple loop:
//
//	avx2    4×16 output tile in eight YMM accumulators across the whole k
//	        loop: two loads of b, four VBROADCASTSS of a, VMULPS+VADDPS
//	sse2    4×8 tile in eight XMM accumulators, same schedule
//	purego  zero the output row, then one AXPY per k — also the reference,
//	        the arm64 path (through the NEON axpyKernel) and, on every tier,
//	        the handler of the rows and columns a whole tile does not cover
//
// The tile kernels never reload or store an accumulator inside the k loop;
// the AXPY formulation loads and stores the output row on every step, which
// is what kept MatMul at a quarter of the machine before the tile tier.

package mat

import "fmt"

// axpyBlock is the column-block width of the AXPY formulation: output and
// b-row blocks of this width stay cache-resident across the k loop.
// Blocking partitions only the independent output columns.
const axpyBlock = 256

// Gemm computes dst[m×n] = a[m×k]·b[k×n]. Each operand is a row-major
// block inside its slice: row i of dst starts at dst[i*ldd], of a at
// a[i*lda], of b at b[i*ldb]. Only the m×n block of dst is written — the
// floats between its rows are untouched — and dst must not overlap a or b.
// It panics if a stride is narrower than its block or a slice too short.
func Gemm(dst []float32, ldd int, a []float32, lda int, b []float32, ldb int, m, n, k int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("mat: Gemm negative shape %dx%d·%dx%d", m, k, k, n))
	}
	checkBlock("dst", len(dst), ldd, m, n)
	checkBlock("a", len(a), lda, m, k)
	checkBlock("b", len(b), ldb, k, n)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := 0; i < m; i++ {
			clear(dst[i*ldd : i*ldd+n])
		}
		return
	}
	axpy := axpyKernel
	mt, nt := 0, 0 // extent of the block the tile kernels covered
	if activeTier == tidPurego {
		axpy = axpyGeneric
	} else {
		mt, nt = gemmTiles(dst, ldd, a, lda, b, ldb, m, n, k)
	}
	if nt < n { // columns right of the tiles, all rows
		gemmAxpy(axpy, dst[nt:], ldd, a, lda, b[nt:], ldb, m, n-nt, k)
	}
	if mt < m && nt > 0 { // rows below the tiles, tile columns
		gemmAxpy(axpy, dst[mt*ldd:], ldd, a[mt*lda:], lda, b, ldb, m-mt, nt, k)
	}
}

// checkBlock panics unless a rows×cols block with row stride ld fits in a
// slice of length size.
func checkBlock(name string, size, ld, rows, cols int) {
	if rows == 0 || cols == 0 {
		return
	}
	if ld < cols || (rows-1)*ld+cols > size {
		panic(fmt.Sprintf("mat: Gemm %s: %dx%d block with stride %d does not fit in %d floats", name, rows, cols, ld, size))
	}
}

// gemmAxpy is the reference formulation of the Gemm contract (m, n, k all
// positive): zero each output row, then add a[i][k]·b[k][:] for increasing
// k through the given AXPY kernel.
func gemmAxpy(axpy func(dst []float32, alpha float32, x []float32), dst []float32, ldd int, a []float32, lda int, b []float32, ldb int, m, n, k int) {
	for j0 := 0; j0 < n; j0 += axpyBlock {
		j1 := min(j0+axpyBlock, n)
		for i := 0; i < m; i++ {
			orow := dst[i*ldd+j0 : i*ldd+j1]
			clear(orow)
			for kk, av := range a[i*lda : i*lda+k] {
				axpy(orow, av, b[kk*ldb+j0:kk*ldb+j1])
			}
		}
	}
}
