// Vectorized scoring kernels.
//
// Every inner-product-style reduction in this package — Dot, ScoreRows,
// MatMulT, MatVec — uses ONE canonical reduction order, the 4-lane order:
//
//	lane[l] = Σ a[i]*b[i]  over the 4-aligned prefix, for i ≡ l (mod 4)
//	sum     = (lane0 + lane2) + (lane1 + lane3)
//	sum    += a[i]*b[i]  serially for the remaining tail elements
//
// Four independent accumulator lanes map exactly onto a 128-bit SSE
// register, so the amd64 assembly kernels (dot_amd64.s) and the portable Go
// implementations below produce bit-identical results — the property tests
// pin this across odd lengths, zero lengths and non-multiple-of-4
// dimensions. The order is a hard determinism contract: serial, parallel,
// sharded and remote query paths all score through these kernels, and
// their answers must match bit for bit whatever the architecture.
//
// MatMul is different: its per-output-element reduction stays in plain
// increasing-k order, which SIMD over the output columns cannot perturb —
// vector lanes and register tiles there hold *different* output elements,
// never partial sums of one element (gemm.go).
//
// The portable kernels wrap every product in an explicit float32(...)
// conversion. On amd64 that is a no-op; on architectures with a fused
// multiply-add (arm64) it is what forbids the compiler from contracting
// acc += x*y into one single-rounding instruction — the Go spec allows the
// fusion otherwise — which would break bit-identity with the two-rounding
// assembly tiers.
//
// Speed comes from: SSE kernels that score four rows per pass against a
// register-resident query (amd64), bounds-check-eliminated 4-way unrolled
// loops everywhere else, register-tiled GEMM micro-kernels, and
// allocation-free operation via the scratch pool (pool.go).

package mat

import "fmt"

// dotKernel is the portable inner-product kernel implementing the canonical
// 4-lane reduction order. Callers guarantee len(b) >= len(a).
func dotKernel(a, b []float32) float32 {
	var l0, l1, l2, l3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		l0 += float32(x[0] * y[0])
		l1 += float32(x[1] * y[1])
		l2 += float32(x[2] * y[2])
		l3 += float32(x[3] * y[3])
	}
	s := (l0 + l2) + (l1 + l3)
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// dot4rowsGeneric scores four consecutive rows of a row-major block (stride
// len(q)) against q, writing the four products into dst[0:4]. It is the
// portable counterpart of the assembly kernel: each row reduces in the
// canonical 4-lane order, so results are bit-identical across
// architectures.
func dot4rowsGeneric(dst []float32, q, block []float32) {
	n := len(q)
	dst[0] = dotKernel(q, block[:n])
	dst[1] = dotKernel(q, block[n:2*n])
	dst[2] = dotKernel(q, block[2*n:3*n])
	dst[3] = dotKernel(q, block[3*n:4*n])
}

// dot8rowsGeneric is the portable twin of the AVX2 dot8rows kernel: eight
// consecutive rows against q into dst[0:8]. Widening to eight rows per
// pass never touches any row's reduction order — each row is still the
// canonical 4-lane dotKernel — so this is bit-identical to the assembly
// tier and to two dot4rowsGeneric calls.
func dot8rowsGeneric(dst []float32, q, block []float32) {
	n := len(q)
	dot4rowsGeneric(dst[:4:4], q, block[:4*n])
	dot4rowsGeneric(dst[4:8:8], q, block[4*n:8*n])
}

// axpyGeneric computes dst[j] += alpha*x[j], the product rounded before the
// add. Each output element owns its accumulation chain, so unrolling (or
// SIMD lanes) cannot change any reduction order.
func axpyGeneric(dst []float32, alpha float32, x []float32) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		d := dst[j : j+4 : j+4]
		v := x[j : j+4 : j+4]
		d[0] += float32(alpha * v[0])
		d[1] += float32(alpha * v[1])
		d[2] += float32(alpha * v[2])
		d[3] += float32(alpha * v[3])
	}
	for ; j < len(dst); j++ {
		dst[j] += float32(alpha * x[j])
	}
}

// ScanBlock is the recommended row count per ScoreRows pass for full-scan
// consumers (flat index, unindexed collections, exhaustive HNSW): large
// enough to amortise the per-block result handling, small enough that the
// score buffer stays in L1.
const ScanBlock = 256

// ScoreRows scores a query against every row of a row-major block in one
// pass: dst[r] = Dot(q, block[r*dim:(r+1)*dim]). It returns dst truncated
// to the row count. dst must have capacity for len(block)/dim scores; a nil
// dst allocates. This is the batch kernel behind the flat-index full scan,
// the IVF coarse ranking, MatVec and MatMulT; results are bit-identical to
// per-row Dot calls.
func ScoreRows(dst []float32, q Vec, block []float32, dim int) []float32 {
	if dim <= 0 || len(q) != dim {
		panic(fmt.Sprintf("mat: ScoreRows query length %d != dim %d", len(q), dim))
	}
	if len(block)%dim != 0 {
		panic(fmt.Sprintf("mat: ScoreRows block length %d not a multiple of dim %d", len(block), dim))
	}
	n := len(block) / dim
	if dst == nil {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	rows4 := dot4rows
	wide := activeTier == tidAVX2
	if activeTier == tidPurego {
		rows4 = dot4rowsGeneric
		wide = false
	}
	r := 0
	if wide {
		for ; r+8 <= n; r += 8 {
			dot8rows(dst[r:r+8:r+8], q, block[r*dim:(r+8)*dim])
		}
	}
	for ; r+4 <= n; r += 4 {
		rows4(dst[r:r+4:r+4], q, block[r*dim:(r+4)*dim])
	}
	for ; r < n; r++ {
		dst[r] = dotKernel(q, block[r*dim:(r+1)*dim])
	}
	return dst
}

// MatMulInto computes dst = a·b into a caller-supplied matrix and returns
// dst. dst must be shaped a.Rows×b.Cols and must not alias a or b; its
// previous contents are overwritten. It is Gemm over whole matrices: every
// out[i][j] accumulates its k terms in increasing-k order, bit-identical
// to the naive triple loop on every tier.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	Gemm(dst.Data, dst.Cols, a.Data, a.Cols, b.Data, b.Cols, a.Rows, b.Cols, a.Cols)
	return dst
}

// MatMulTInto computes dst = a·bᵀ (dst[i][j] = Dot(a.Row(i), b.Row(j)))
// into a caller-supplied a.Rows×b.Rows matrix and returns dst. b's rows are
// contiguous, so each a-row scores against b's block through the multi-row
// ScoreRows kernel; bit-identical to per-cell Dot.
func MatMulTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulTInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if a.Cols == 0 {
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		return dst
	}
	for i := 0; i < a.Rows; i++ {
		ScoreRows(dst.Row(i), a.Row(i), b.Data, a.Cols)
	}
	return dst
}

// MatVecInto computes dst = m·v into a caller-supplied length-m.Rows vector
// and returns it; bit-identical to per-row Dot.
func MatVecInto(dst Vec, m *Matrix, v Vec) Vec {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: MatVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MatVecInto dst length %d, want %d", len(dst), m.Rows))
	}
	if m.Cols == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	return ScoreRows(dst, v, m.Data, m.Cols)
}
