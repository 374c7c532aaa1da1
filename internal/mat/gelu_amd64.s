//go:build amd64 && !purego

#include "textflag.h"

// AVX2 GELU: eight lanes of exactly the float32 operation sequence of
// geluGeneric (vec.go), one VEX instruction per scalar operation, so every
// lane rounds where the portable formula rounds and the results are
// bit-identical — NaN payloads included:
//
//	x3 = x·(x·x);  u = c·(x + k·x3)
//	u  = min(u, clamp), max(u, −clamp)   NaN passes both
//	p  = u·(((((((u²·a13+a11)·u²+a9)·u²+a7)·u²+a5)·u²+a3)·u²+a1)
//	q  = ((u²·b6+b4)·u²+b2)·u²+b0
//	v  = (0.5·x)·(1 + p/q)
//
// The clamp is the scalar `if u > clamp … else if u < −clamp`: VMINPS and
// VMAXPS return their second source when either input is NaN, so u sits in
// that slot (Go's first operand) and a NaN flows through untouched, as it
// fails both scalar comparisons. VDIVPS is IEEE division, like DIVSS; no
// reciprocal approximation and no FMA anywhere.

// geluConsts holds each constant replicated across eight lanes, in
// geluGeneric's order: c, k, 0.5, 1, clamp, −clamp, a13…a1, b6…b0.
DATA geluConsts<>+0(SB)/8, $0x3f4c422a3f4c422a
DATA geluConsts<>+8(SB)/8, $0x3f4c422a3f4c422a
DATA geluConsts<>+16(SB)/8, $0x3f4c422a3f4c422a
DATA geluConsts<>+24(SB)/8, $0x3f4c422a3f4c422a
DATA geluConsts<>+32(SB)/8, $0x3d3727133d372713
DATA geluConsts<>+40(SB)/8, $0x3d3727133d372713
DATA geluConsts<>+48(SB)/8, $0x3d3727133d372713
DATA geluConsts<>+56(SB)/8, $0x3d3727133d372713
DATA geluConsts<>+64(SB)/8, $0x3f0000003f000000
DATA geluConsts<>+72(SB)/8, $0x3f0000003f000000
DATA geluConsts<>+80(SB)/8, $0x3f0000003f000000
DATA geluConsts<>+88(SB)/8, $0x3f0000003f000000
DATA geluConsts<>+96(SB)/8, $0x3f8000003f800000
DATA geluConsts<>+104(SB)/8, $0x3f8000003f800000
DATA geluConsts<>+112(SB)/8, $0x3f8000003f800000
DATA geluConsts<>+120(SB)/8, $0x3f8000003f800000
DATA geluConsts<>+128(SB)/8, $0x40fcf84f40fcf84f
DATA geluConsts<>+136(SB)/8, $0x40fcf84f40fcf84f
DATA geluConsts<>+144(SB)/8, $0x40fcf84f40fcf84f
DATA geluConsts<>+152(SB)/8, $0x40fcf84f40fcf84f
DATA geluConsts<>+160(SB)/8, $0xc0fcf84fc0fcf84f
DATA geluConsts<>+168(SB)/8, $0xc0fcf84fc0fcf84f
DATA geluConsts<>+176(SB)/8, $0xc0fcf84fc0fcf84f
DATA geluConsts<>+184(SB)/8, $0xc0fcf84fc0fcf84f
DATA geluConsts<>+192(SB)/8, $0xa59f25c0a59f25c0
DATA geluConsts<>+200(SB)/8, $0xa59f25c0a59f25c0
DATA geluConsts<>+208(SB)/8, $0xa59f25c0a59f25c0
DATA geluConsts<>+216(SB)/8, $0xa59f25c0a59f25c0
DATA geluConsts<>+224(SB)/8, $0x2a61337e2a61337e
DATA geluConsts<>+232(SB)/8, $0x2a61337e2a61337e
DATA geluConsts<>+240(SB)/8, $0x2a61337e2a61337e
DATA geluConsts<>+248(SB)/8, $0x2a61337e2a61337e
DATA geluConsts<>+256(SB)/8, $0xaebd37ffaebd37ff
DATA geluConsts<>+264(SB)/8, $0xaebd37ffaebd37ff
DATA geluConsts<>+272(SB)/8, $0xaebd37ffaebd37ff
DATA geluConsts<>+280(SB)/8, $0xaebd37ffaebd37ff
DATA geluConsts<>+288(SB)/8, $0x335c0041335c0041
DATA geluConsts<>+296(SB)/8, $0x335c0041335c0041
DATA geluConsts<>+304(SB)/8, $0x335c0041335c0041
DATA geluConsts<>+312(SB)/8, $0x335c0041335c0041
DATA geluConsts<>+320(SB)/8, $0x3779434a3779434a
DATA geluConsts<>+328(SB)/8, $0x3779434a3779434a
DATA geluConsts<>+336(SB)/8, $0x3779434a3779434a
DATA geluConsts<>+344(SB)/8, $0x3779434a3779434a
DATA geluConsts<>+352(SB)/8, $0x3a270ded3a270ded
DATA geluConsts<>+360(SB)/8, $0x3a270ded3a270ded
DATA geluConsts<>+368(SB)/8, $0x3a270ded3a270ded
DATA geluConsts<>+376(SB)/8, $0x3a270ded3a270ded
DATA geluConsts<>+384(SB)/8, $0x3ba059dc3ba059dc
DATA geluConsts<>+392(SB)/8, $0x3ba059dc3ba059dc
DATA geluConsts<>+400(SB)/8, $0x3ba059dc3ba059dc
DATA geluConsts<>+408(SB)/8, $0x3ba059dc3ba059dc
DATA geluConsts<>+416(SB)/8, $0x35a0d3d835a0d3d8
DATA geluConsts<>+424(SB)/8, $0x35a0d3d835a0d3d8
DATA geluConsts<>+432(SB)/8, $0x35a0d3d835a0d3d8
DATA geluConsts<>+440(SB)/8, $0x35a0d3d835a0d3d8
DATA geluConsts<>+448(SB)/8, $0x38f895d638f895d6
DATA geluConsts<>+456(SB)/8, $0x38f895d638f895d6
DATA geluConsts<>+464(SB)/8, $0x38f895d638f895d6
DATA geluConsts<>+472(SB)/8, $0x38f895d638f895d6
DATA geluConsts<>+480(SB)/8, $0x3b14aa053b14aa05
DATA geluConsts<>+488(SB)/8, $0x3b14aa053b14aa05
DATA geluConsts<>+496(SB)/8, $0x3b14aa053b14aa05
DATA geluConsts<>+504(SB)/8, $0x3b14aa053b14aa05
DATA geluConsts<>+512(SB)/8, $0x3ba059dd3ba059dd
DATA geluConsts<>+520(SB)/8, $0x3ba059dd3ba059dd
DATA geluConsts<>+528(SB)/8, $0x3ba059dd3ba059dd
DATA geluConsts<>+536(SB)/8, $0x3ba059dd3ba059dd
GLOBL geluConsts<>(SB), RODATA|NOPTR, $544

// func gelu8(v []float32)
//
// Rewrites v in place; len(v) must be a multiple of 8 (GELU itself hands
// the tail to geluGeneric). Callers must check hasAVX2.
TEXT ·gelu8(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	SHRQ $3, CX
	JZ   done
	VMOVUPS geluConsts<>+128(SB), Y14 // clamp
	VMOVUPS geluConsts<>+160(SB), Y15 // −clamp

loop:
	VMOVUPS (SI), Y0                    // x
	VMULPS  Y0, Y0, Y1                  // x·x
	VMULPS  Y1, Y0, Y1                  // x3 = x·(x·x)
	VMULPS  geluConsts<>+32(SB), Y1, Y1 // k·x3
	VADDPS  Y1, Y0, Y1                  // x + k·x3
	VMULPS  geluConsts<>+0(SB), Y1, Y1  // u = c·(x + k·x3)
	VMINPS  Y1, Y14, Y1                 // clamp < u ? clamp : u
	VMAXPS  Y1, Y15, Y1                 // −clamp > u ? −clamp : u
	VMULPS  Y1, Y1, Y2                  // u²

	VMULPS geluConsts<>+192(SB), Y2, Y3 // u²·a13
	VADDPS geluConsts<>+224(SB), Y3, Y3 // + a11
	VMULPS Y3, Y2, Y3
	VADDPS geluConsts<>+256(SB), Y3, Y3 // + a9
	VMULPS Y3, Y2, Y3
	VADDPS geluConsts<>+288(SB), Y3, Y3 // + a7
	VMULPS Y3, Y2, Y3
	VADDPS geluConsts<>+320(SB), Y3, Y3 // + a5
	VMULPS Y3, Y2, Y3
	VADDPS geluConsts<>+352(SB), Y3, Y3 // + a3
	VMULPS Y3, Y2, Y3
	VADDPS geluConsts<>+384(SB), Y3, Y3 // + a1
	VMULPS Y3, Y1, Y3                   // p = u·(…)

	VMULPS geluConsts<>+416(SB), Y2, Y4 // u²·b6
	VADDPS geluConsts<>+448(SB), Y4, Y4 // + b4
	VMULPS Y4, Y2, Y4
	VADDPS geluConsts<>+480(SB), Y4, Y4 // + b2
	VMULPS Y4, Y2, Y4
	VADDPS geluConsts<>+512(SB), Y4, Y4 // q = … + b0

	VDIVPS Y4, Y3, Y3                   // tanh = p/q
	VADDPS geluConsts<>+96(SB), Y3, Y3  // 1 + tanh
	VMULPS geluConsts<>+64(SB), Y0, Y0  // 0.5·x
	VMULPS Y3, Y0, Y0                   // (0.5·x)·(1 + tanh)
	VMOVUPS Y0, (SI)

	ADDQ $32, SI
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET
