//go:build amd64 && !purego

package mat

// The baseline amd64 kernels in dot_amd64.s use only SSE2 instructions
// (the amd64 baseline), so they need no CPU-feature detection; the avx2
// tier in dot8_amd64.s is gated on detection (cpu_amd64.go). Build with
// the purego tag to force the portable implementations (e.g. to
// cross-check the assembly in tests or benchmarks).

// dot4rows scores four consecutive rows of a row-major block (stride
// len(q)) against q into dst[0:4], each row in the canonical 4-lane
// reduction order — bit-identical to dot4rowsGeneric.
//
//go:noescape
func dot4rows(dst []float32, q, block []float32)

// dot8rows is the AVX2 tier: eight consecutive rows per pass into
// dst[0:8], each row still in the canonical 4-lane reduction order —
// bit-identical to dot8rowsGeneric. Callers must check hasAVX2 (the tier
// dispatch in ScoreRows does).
//
//go:noescape
func dot8rows(dst []float32, q, block []float32)

// axpyKernel computes dst[j] += alpha*x[j] over len(dst) elements
// (len(x) >= len(dst)); bit-identical to axpyGeneric.
//
//go:noescape
func axpyKernel(dst []float32, alpha float32, x []float32)

// gemm4x16 is the AVX2 GEMM tile: dst[0:4][0:16] = a[0:4][0:k]·b[0:k][0:16]
// with row strides ldd/lda/ldb in floats and k >= 1; see gemm_amd64.s.
//
//go:noescape
func gemm4x16(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)

// gemm4x8 is the SSE2 GEMM tile: the same contract over 8 columns.
//
//go:noescape
func gemm4x8(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)

// gemmTiles runs the active tier's tile kernel over every whole tile of the
// m×n output (k >= 1, operands bounds-checked by Gemm) and returns the
// extent it covered; Gemm finishes the remaining rows and columns. Column
// panels are the outer loop so a k×16 panel of b stays in L1 while the row
// tiles sweep past it.
func gemmTiles(dst []float32, ldd int, a []float32, lda int, b []float32, ldb int, m, n, k int) (mt, nt int) {
	wide := activeTier == tidAVX2
	w := 8
	if wide {
		w = 16
	}
	mt, nt = m&^3, n-n%w
	for j := 0; j < nt; j += w {
		for i := 0; i < mt; i += 4 {
			if wide {
				gemm4x16(&dst[i*ldd+j], ldd, &a[i*lda], lda, &b[j], ldb, k)
			} else {
				gemm4x8(&dst[i*ldd+j], ldd, &a[i*lda], lda, &b[j], ldb, k)
			}
		}
	}
	return mt, nt
}
