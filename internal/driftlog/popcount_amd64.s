#include "textflag.h"

// nibbleCounts holds popcount(i) in byte i of each 128-bit lane, the
// VPSHUFB table the body looks each 4-bit half of a byte up in.
DATA nibbleCounts<>+0x00(SB)/8, $0x0302020102010100
DATA nibbleCounts<>+0x08(SB)/8, $0x0403030203020201
DATA nibbleCounts<>+0x10(SB)/8, $0x0302020102010100
DATA nibbleCounts<>+0x18(SB)/8, $0x0403030203020201
GLOBL nibbleCounts<>(SB), RODATA|NOPTR, $32

// BYTECOUNTS replaces every byte of x by its popcount (each at most 8):
// both nibbles looked up in Y14 and added. Y15 holds 0x0f in every byte;
// t is scratch.
#define BYTECOUNTS(x, t) \
	VPSRLW  $4, x, t;  \
	VPAND   Y15, x, x; \
	VPAND   Y15, t, t; \
	VPSHUFB x, Y14, x; \
	VPSHUFB t, Y14, t; \
	VPADDB  t, x, x

// func popcountAndAVX2(a, b, f *uint64, n int) (total, flagged int)
//
// Σ popcount(a[i] & b[i]) and Σ popcount(a[i] & b[i] & f[i]) over i < n:
// eight words a step (two 256-bit vectors per operand), their byte counts
// summed into 64-bit lanes by VPSADBW, then one four-word step, then the
// last words one at a time with POPCNTQ.
TEXT ·popcountAndAVX2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ f+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	XORQ R8, R8
	XORQ R9, R9
	CMPQ CX, $4
	JLT  tail

	MOVQ         $0x0f0f0f0f0f0f0f0f, R10
	VMOVQ        R10, X15
	VPBROADCASTQ X15, Y15
	VMOVDQU      nibbleCounts<>(SB), Y14
	VPXOR        Y13, Y13, Y13
	VPXOR        Y10, Y10, Y10
	VPXOR        Y11, Y11, Y11
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           step4

loop8:
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VPAND   (DI)(AX*8), Y0, Y0
	VPAND   32(DI)(AX*8), Y1, Y1
	VPAND   (DX)(AX*8), Y0, Y2
	VPAND   32(DX)(AX*8), Y1, Y3
	BYTECOUNTS(Y0, Y4)
	BYTECOUNTS(Y1, Y5)
	BYTECOUNTS(Y2, Y6)
	BYTECOUNTS(Y3, Y7)
	VPADDB  Y1, Y0, Y0
	VPADDB  Y3, Y2, Y2
	VPSADBW Y13, Y0, Y0
	VPSADBW Y13, Y2, Y2
	VPADDQ  Y0, Y10, Y10
	VPADDQ  Y2, Y11, Y11
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     loop8

step4:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     fold
	VMOVDQU (SI)(AX*8), Y0
	VPAND   (DI)(AX*8), Y0, Y0
	VPAND   (DX)(AX*8), Y0, Y2
	BYTECOUNTS(Y0, Y4)
	BYTECOUNTS(Y2, Y6)
	VPSADBW Y13, Y0, Y0
	VPSADBW Y13, Y2, Y2
	VPADDQ  Y0, Y10, Y10
	VPADDQ  Y2, Y11, Y11
	MOVQ    BX, AX

fold:
	VEXTRACTI128 $1, Y10, X0
	VPADDQ       X0, X10, X10
	VPSHUFD      $0x4e, X10, X0
	VPADDQ       X0, X10, X10
	VMOVQ        X10, R8
	VEXTRACTI128 $1, Y11, X1
	VPADDQ       X1, X11, X11
	VPSHUFD      $0x4e, X11, X1
	VPADDQ       X1, X11, X11
	VMOVQ        X11, R9
	VZEROUPPER

tail:
	CMPQ    AX, CX
	JGE     done
	MOVQ    (SI)(AX*8), R10
	ANDQ    (DI)(AX*8), R10
	POPCNTQ R10, R11
	ADDQ    R11, R8
	ANDQ    (DX)(AX*8), R10
	POPCNTQ R10, R11
	ADDQ    R11, R9
	INCQ    AX
	JMP     tail

done:
	MOVQ R8, total+32(FP)
	MOVQ R9, flagged+40(FP)
	RET

// func popcountAndAVX512(a, b, f *uint64, n int) (total, flagged int)
//
// popcountAndAVX2's sums with VPOPCNTQ: eight words a step in seven
// instructions (one load, two ANDs, two popcounts, two lane adds), the
// 64-bit lane sums folded at the end, then the last words one at a time
// with POPCNTQ.
TEXT ·popcountAndAVX512(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ f+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	XORQ R8, R8
	XORQ R9, R9
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail512

	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

loop512:
	VMOVDQU64 (SI)(AX*8), Z0
	VPANDQ    (DI)(AX*8), Z0, Z0
	VPANDQ    (DX)(AX*8), Z0, Z1
	VPOPCNTQ  Z0, Z0
	VPOPCNTQ  Z1, Z1
	VPADDQ    Z0, Z10, Z10
	VPADDQ    Z1, Z11, Z11
	ADDQ      $8, AX
	CMPQ      AX, BX
	JLT       loop512

	VEXTRACTI64X4 $1, Z10, Y0
	VPADDQ        Y0, Y10, Y10
	VEXTRACTI128  $1, Y10, X0
	VPADDQ        X0, X10, X10
	VPSHUFD       $0x4e, X10, X0
	VPADDQ        X0, X10, X10
	VMOVQ         X10, R8
	VEXTRACTI64X4 $1, Z11, Y1
	VPADDQ        Y1, Y11, Y11
	VEXTRACTI128  $1, Y11, X1
	VPADDQ        X1, X11, X11
	VPSHUFD       $0x4e, X11, X1
	VPADDQ        X1, X11, X11
	VMOVQ         X11, R9
	VZEROUPPER

tail512:
	CMPQ    AX, CX
	JGE     done512
	MOVQ    (SI)(AX*8), R10
	ANDQ    (DI)(AX*8), R10
	POPCNTQ R10, R11
	ADDQ    R11, R8
	ANDQ    (DX)(AX*8), R10
	POPCNTQ R10, R11
	ADDQ    R11, R9
	INCQ    AX
	JMP     tail512

done512:
	MOVQ R8, total+32(FP)
	MOVQ R9, flagged+40(FP)
	RET
