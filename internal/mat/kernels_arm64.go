//go:build arm64 && !purego

package mat

// The arm64 kernels in dot_arm64.s are the NEON port of the 4-lane
// contract: 128-bit Advanced SIMD registers hold exactly the four
// accumulator lanes, and the kernels use unfused FMUL+FADD (never FMLA —
// its single rounding would break bit-identity with the amd64 and purego
// tiers). NEON is baseline on AArch64, so no feature detection is needed.
// Build with the purego tag to force the portable implementations.

// dot4rows scores four consecutive rows of a row-major block (stride
// len(q)) against q into dst[0:4], each row in the canonical 4-lane
// reduction order — bit-identical to dot4rowsGeneric.
//
//go:noescape
func dot4rows(dst []float32, q, block []float32)

// axpyKernel computes dst[j] += alpha*x[j] over len(dst) elements
// (len(x) >= len(dst)); bit-identical to axpyGeneric.
//
//go:noescape
func axpyKernel(dst []float32, alpha float32, x []float32)

// dot8rows exists on arm64 only to satisfy the tier dispatch; hasAVX2 is
// constant-false here, so it is never selected.
func dot8rows(dst []float32, q, block []float32) { dot8rowsGeneric(dst, q, block) }

// gemmTiles covers nothing on arm64: there is no tile kernel here yet, so
// Gemm runs entirely through the NEON axpyKernel.
func gemmTiles(dst []float32, ldd int, a []float32, lda int, b []float32, ldb int, m, n, k int) (mt, nt int) {
	return 0, 0
}
