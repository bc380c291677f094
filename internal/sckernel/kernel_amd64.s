#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func tile16x2(x *uint64, w0, w1 *lane, n int, sums *[64]uint16)
//
// A lane is {mag, neg uint64}: the magnitude's low 16 bits sit at
// offset 0, the sign mask's at offset 8. Y0/Y1 accumulate DKV 0's
// totals and negative parts, Y2/Y3 DKV 1's.
TEXT ·tile16x2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ w0+8(FP), R8
	MOVQ w1+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ sums+32(FP), DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ CX, CX
	JLE   done

loop:
	VMOVDQU      (SI), Y4
	VPBROADCASTW (R8), Y5
	VPBROADCASTW 8(R8), Y6
	VPMULHUW     Y5, Y4, Y5
	VPAND        Y5, Y6, Y6
	VPADDW       Y5, Y0, Y0
	VPADDW       Y6, Y1, Y1
	VPBROADCASTW (R9), Y7
	VPBROADCASTW 8(R9), Y8
	VPMULHUW     Y7, Y4, Y7
	VPAND        Y7, Y8, Y8
	VPADDW       Y7, Y2, Y2
	VPADDW       Y8, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $16, R8
	ADDQ         $16, R9
	DECQ         CX
	JNZ          loop

done:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET
