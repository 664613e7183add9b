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

// func quadRowAVX(d, b *float64, n int, a0, a1, a2, a3 float64)
//
// d[j] = d[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], with bk the
// k-th row of n elements at b. Every step is one rounded VMULPD or
// VADDPD (never FMA) in the order of the Go loop, lane j holding output
// element j: eight elements per iteration, then four, then one at a
// time with the scalar forms of the same instructions.
TEXT ·quadRowAVX(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ (SI)(CX*8), R8  // b1
	LEAQ (R8)(CX*8), R9  // b2
	LEAQ (R9)(CX*8), R10 // b3
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   quad4

loop8:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  (SI)(AX*8), Y0, Y6
	VMULPD  32(SI)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R8)(AX*8), Y1, Y6
	VMULPD  32(R8)(AX*8), Y1, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y2, Y6
	VMULPD  32(R9)(AX*8), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R10)(AX*8), Y3, Y6
	VMULPD  32(R10)(AX*8), Y3, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop8

quad4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R8)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*8), Y2, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(AX*8), Y3, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X4
	VMULSD (SI)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R8)(AX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*8), X2, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(AX*8), X3, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET
