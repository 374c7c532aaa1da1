//go:build amd64 && !purego

#include "textflag.h"

// GEMM register-tile micro-kernels (see gemm.go for the contract). Each
// computes ONE output tile of dst = a·b over the whole k loop with the
// accumulators resident in registers: zero them, and for k = 0, 1, 2, …
// load one row segment of b, broadcast one element of each of four a rows,
// and do acc = float32(b·a) + acc with separate multiply and add — two
// roundings per step, never FMA. Lanes hold different output elements, so
// each element's chain is the naive increasing-k loop, bit for bit. The
// multiply and add operand orders match axpyKernel (b first, then product
// first), so a tile element and an AXPY-remainder element agree even on
// which payload survives when two NaNs meet.
//
// Strides arrive in floats and are scaled to bytes here. The Go driver
// (gemmTiles) guarantees k >= 1 and that every addressed element lies
// inside its slice.

// func gemm4x16(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)
//
// AVX2 tile: 4 rows × 16 columns in Y0..Y7 (row r in Y(2r), Y(2r+1)).
TEXT ·gemm4x16(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R10
	MOVQ k+48(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10

	// a row pointers: SI, R11, R12, R13; AX is the shared byte offset k*4.
	LEAQ (SI)(R9*1), R11
	LEAQ (SI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	XORQ AX, AX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

k16:
	VMOVUPS (DX), Y8              // b[k][0:8]
	VMOVUPS 32(DX), Y9            // b[k][8:16]

	VBROADCASTSS (SI)(AX*1), Y10  // a[0][k]
	VMULPS       Y10, Y8, Y12
	VADDPS       Y0, Y12, Y0
	VMULPS       Y10, Y9, Y13
	VADDPS       Y1, Y13, Y1

	VBROADCASTSS (R11)(AX*1), Y11 // a[1][k]
	VMULPS       Y11, Y8, Y14
	VADDPS       Y2, Y14, Y2
	VMULPS       Y11, Y9, Y15
	VADDPS       Y3, Y15, Y3

	VBROADCASTSS (R12)(AX*1), Y10 // a[2][k]
	VMULPS       Y10, Y8, Y12
	VADDPS       Y4, Y12, Y4
	VMULPS       Y10, Y9, Y13
	VADDPS       Y5, Y13, Y5

	VBROADCASTSS (R13)(AX*1), Y11 // a[3][k]
	VMULPS       Y11, Y8, Y14
	VADDPS       Y6, Y14, Y6
	VMULPS       Y11, Y9, Y15
	VADDPS       Y7, Y15, Y7

	ADDQ $4, AX
	ADDQ R10, DX
	DECQ CX
	JNZ  k16

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm4x8(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)
//
// SSE2 tile: 4 rows × 8 columns in X0..X7 (row r in X(2r), X(2r+1)).
// Two-operand SSE leaves the sum in the product's register, so each step
// ends with a register move back into the accumulator (eliminated at
// rename) — the price of keeping axpyKernel's operand order.
TEXT ·gemm4x8(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R10
	MOVQ k+48(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10

	LEAQ (SI)(R9*1), R11
	LEAQ (SI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	XORQ AX, AX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

k8:
	MOVUPS (DX), X8               // b[k][0:4]
	MOVUPS 16(DX), X9             // b[k][4:8]

	MOVSS  (SI)(AX*1), X10        // a[0][k]
	SHUFPS $0x00, X10, X10
	MOVAPS X8, X12
	MULPS  X10, X12
	ADDPS  X0, X12
	MOVAPS X12, X0
	MOVAPS X9, X13
	MULPS  X10, X13
	ADDPS  X1, X13
	MOVAPS X13, X1

	MOVSS  (R11)(AX*1), X11       // a[1][k]
	SHUFPS $0x00, X11, X11
	MOVAPS X8, X14
	MULPS  X11, X14
	ADDPS  X2, X14
	MOVAPS X14, X2
	MOVAPS X9, X15
	MULPS  X11, X15
	ADDPS  X3, X15
	MOVAPS X15, X3

	MOVSS  (R12)(AX*1), X10       // a[2][k]
	SHUFPS $0x00, X10, X10
	MOVAPS X8, X12
	MULPS  X10, X12
	ADDPS  X4, X12
	MOVAPS X12, X4
	MOVAPS X9, X13
	MULPS  X10, X13
	ADDPS  X5, X13
	MOVAPS X13, X5

	MOVSS  (R13)(AX*1), X11       // a[3][k]
	SHUFPS $0x00, X11, X11
	MOVAPS X8, X14
	MULPS  X11, X14
	ADDPS  X6, X14
	MOVAPS X14, X6
	MOVAPS X9, X15
	MULPS  X11, X15
	ADDPS  X7, X15
	MOVAPS X15, X7

	ADDQ $4, AX
	ADDQ R10, DX
	DECQ CX
	JNZ  k8

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   R8, DI
	MOVUPS X2, (DI)
	MOVUPS X3, 16(DI)
	ADDQ   R8, DI
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	ADDQ   R8, DI
	MOVUPS X6, (DI)
	MOVUPS X7, 16(DI)
	RET
