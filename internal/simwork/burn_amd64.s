#include "textflag.h"

// func burnLoop(cost int) float32
//
// Exactly the instructions the compiler emits for burnGo's inner loop
// (LEAQ/MOVSS/LEAQ/MULSS/INCQ/ADDSS/CMPQ/JL: not unrolled, products
// rounded before each add), with the loop head aligned to a 64-byte line
// so all 38 bytes of the loop sit in one line wherever the linker places
// this function. Unrolling it would be faster and would silently
// recalibrate every modelled cost built on Burn (vit.go's encodeCost).
TEXT ·burnLoop(SB), NOSPLIT, $0-12
	MOVQ  cost+0(FP), DX
	XORPS X0, X0               // acc
	JMP   test
	PCALIGN $64                // padding after the JMP never executes

inner:
	LEAQ  ·bufA(SB), DI
	MOVSS (DI)(AX*4), X3
	LEAQ  ·bufB(SB), R8
	MULSS (R8)(AX*4), X3       // bufA[i]·bufB[i]
	INCQ  AX
	ADDSS X3, X2               // s += …
	CMPQ  AX, $64
	JL    inner

	DECQ  DX
	ADDSS X2, X0               // acc += s

test:
	TESTQ DX, DX
	JLE   done
	XORL  AX, AX               // i
	XORPS X2, X2               // s
	JMP   inner

done:
	MOVSS X0, ret+8(FP)
	RET
