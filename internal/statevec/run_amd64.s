#include "textflag.h"

// The AVX2 twins of the bodies in kernels.go, of the Pauli rotation and
// of a diagonal run's block (see run_amd64.go for the contract). Every
// loop is one shape: load the YMM operands of a step, compute, store —
// all loads before any store, four amplitudes (a body twin's block, or
// two in modes 1 and 2) a step; in pauliRotAVX2 AX counts from p to p+n
// over the whole window; in the diagonal runs BX walks the step starts of
// the visit list, and TABLE4 gathers the step's factors from the tables
// by key. The arithmetic of each twin is its Go body's expression written
// out one operation per instruction; the comment on an instruction (a
// macro's, for a body) names the Go subexpression it computes.
// Three-operand AVX reads right to left: VSUBPD b, a, c is c = a - b.

DATA signBit<>+0(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8
DATA sqrtHalf<>+0(SB)/8, $0x3FE6A09E667F3BCD // math.Sqrt2 / 2, kernels.go's s2i
GLOBL sqrtHalf<>(SB), RODATA|NOPTR, $8
DATA half<>+0(SB)/8, $0x3FE0000000000000 // 0.5
GLOBL half<>(SB), RODATA|NOPTR, $8
// Four lanes of 0, then four sign bits: the XOR mask of an even and of an
// odd chunk parity in pauliRotAVX2.
DATA chunkSign<>+32(SB)/8, $0x8000000000000000
DATA chunkSign<>+40(SB)/8, $0x8000000000000000
DATA chunkSign<>+48(SB)/8, $0x8000000000000000
DATA chunkSign<>+56(SB)/8, $0x8000000000000000
GLOBL chunkSign<>(SB), RODATA|NOPTR, $64

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The arithmetic of the pairing bodies, one macro each, shared by the
// twin's loops: a0 = (r0, i0) in Y0, Y1 and a1 = (r1, i1) in Y2, Y3
// in, the body's new a0 in Y4, Y5 and new a1 in Y6, Y7 out (SX takes the
// output registers, which the adjoint exchanges). A macro may clobber its
// inputs and Y8, Y9, and reads its constants from Y10, Y11 (U2 from its
// operands); Y12..Y15 are the caller's.

// BODY_X: re[p], im[p] = r1, i1 and re[p+d], im[p+d] = r0, i0.
#define BODY_X \
	VMOVAPD Y2, Y4; \
	VMOVAPD Y3, Y5; \
	VMOVAPD Y0, Y6; \
	VMOVAPD Y1, Y7

// BODY_Y, Y10 the sign bit: i1, -r1, -i0, r0.
#define BODY_Y \
	VMOVAPD Y3, Y4; \
	VXORPD  Y10, Y2, Y5; \
	VXORPD  Y10, Y1, Y6; \
	VMOVAPD Y0, Y7

// BODY_H, Y10 = s2i: s2i*(r0+r1), s2i*(i0+i1), s2i*(r0-r1), s2i*(i0-i1).
#define BODY_H \
	VADDPD Y2, Y0, Y4; \
	VADDPD Y3, Y1, Y5; \
	VSUBPD Y2, Y0, Y6; \
	VSUBPD Y3, Y1, Y7; \
	VMULPD Y10, Y4, Y4; \
	VMULPD Y10, Y5, Y5; \
	VMULPD Y10, Y6, Y6; \
	VMULPD Y10, Y7, Y7

// BODY_SX, Y10 = 0.5: with sr, si = r0+r1, i0+i1 in Y8, Y9 and dr, di =
// r0-r1, i0-i1 in Y0, Y1, slot 0 gets 0.5*(sr-di), 0.5*(si+dr) and slot
// 1 gets 0.5*(sr+di), 0.5*(si-dr).
#define BODY_SX(o0r, o0i, o1r, o1i) \
	VADDPD Y2, Y0, Y8; \
	VADDPD Y3, Y1, Y9; \
	VSUBPD Y2, Y0, Y0; \
	VSUBPD Y3, Y1, Y1; \
	VSUBPD Y1, Y8, o0r; \
	VADDPD Y0, Y9, o0i; \
	VADDPD Y1, Y8, o1r; \
	VSUBPD Y0, Y9, o1i; \
	VMULPD Y10, o0r, o0r; \
	VMULPD Y10, o0i, o0i; \
	VMULPD Y10, o1r, o1r; \
	VMULPD Y10, o1i, o1i

// BODY_RX, Y10 = c and Y11 = sn: c*r0 + sn*i1, c*i0 - sn*r1,
// c*r1 + sn*i0, c*i1 - sn*r0.
#define BODY_RX \
	VMULPD Y10, Y0, Y4; \
	VMULPD Y11, Y3, Y8; \
	VADDPD Y8, Y4, Y4; \
	VMULPD Y10, Y1, Y5; \
	VMULPD Y11, Y2, Y9; \
	VSUBPD Y9, Y5, Y5; \
	VMULPD Y10, Y2, Y6; \
	VMULPD Y11, Y1, Y8; \
	VADDPD Y8, Y6, Y6; \
	VMULPD Y10, Y3, Y7; \
	VMULPD Y11, Y0, Y9; \
	VSUBPD Y9, Y7, Y7

// BODY_RY, Y10 = c and Y11 = sn: c*r0 - sn*r1, c*i0 - sn*i1,
// sn*r0 + c*r1, sn*i0 + c*i1.
#define BODY_RY \
	VMULPD Y10, Y0, Y4; \
	VMULPD Y11, Y2, Y8; \
	VSUBPD Y8, Y4, Y4; \
	VMULPD Y10, Y1, Y5; \
	VMULPD Y11, Y3, Y9; \
	VSUBPD Y9, Y5, Y5; \
	VMULPD Y11, Y0, Y6; \
	VMULPD Y10, Y2, Y8; \
	VADDPD Y8, Y6, Y6; \
	VMULPD Y11, Y1, Y7; \
	VMULPD Y10, Y3, Y9; \
	VADDPD Y9, Y7, Y7

// BODY_U2(ar, ai, br, bi, cr, ci, dr, di): each output is the
// left-to-right chain ((x*r0 -+ y*i0) + z*r1) -+ w*i1 of its Go
// expression, built in its own register with the next output's as the
// temporary; the last uses the inputs it has finished with.
#define BODY_U2(ar, ai, br, bi, cr, ci, dr, di) \
	VMULPD ar, Y0, Y4; \
	VMULPD ai, Y1, Y5; \
	VSUBPD Y5, Y4, Y4; \
	VMULPD br, Y2, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD bi, Y3, Y5; \
	VSUBPD Y5, Y4, Y4; \
	VMULPD ar, Y1, Y5; \
	VMULPD ai, Y0, Y6; \
	VADDPD Y6, Y5, Y5; \
	VMULPD br, Y3, Y6; \
	VADDPD Y6, Y5, Y5; \
	VMULPD bi, Y2, Y6; \
	VADDPD Y6, Y5, Y5; \
	VMULPD cr, Y0, Y6; \
	VMULPD ci, Y1, Y7; \
	VSUBPD Y7, Y6, Y6; \
	VMULPD dr, Y2, Y7; \
	VADDPD Y7, Y6, Y6; \
	VMULPD di, Y3, Y7; \
	VSUBPD Y7, Y6, Y6; \
	VMULPD cr, Y1, Y7; \
	VMULPD ci, Y0, Y1; \
	VADDPD Y1, Y7, Y7; \
	VMULPD dr, Y3, Y1; \
	VADDPD Y1, Y7, Y7; \
	VMULPD di, Y2, Y1; \
	VADDPD Y1, Y7, Y7

// BODY_PHASE, Y10 = c and Y11 = sn, on r, i in Y0, Y1: c*r - sn*i and
// sn*r + c*i in Y4, Y5.
#define BODY_PHASE \
	VMULPD Y10, Y0, Y4; \
	VMULPD Y11, Y1, Y8; \
	VSUBPD Y8, Y4, Y4; \
	VMULPD Y11, Y0, Y5; \
	VMULPD Y10, Y1, Y9; \
	VADDPD Y9, Y5, Y5

// A body's twin walks the whole 4-amplitude blocks of a run: SI, DI
// address the window's re and im, AX goes from p towards CX = end by
// BX = stride, R8 holds the blockLanes. LANES loads the rest of them:
// DX = delta, Y12 = perm, Y13, Y14 = keep[0], keep[1] and R11 = mode.
#define LANES \
	MOVQ    8(R8), DX; \
	VMOVDQU 16(R8), Y12; \
	VMOVUPD 48(R8), Y13; \
	VMOVUPD 80(R8), Y14; \
	MOVQ    0(R8), R11

// Mode 0 (run): a0 is block A at AX, a1 its partner block at
// R9 = AX+delta, every lane a pair.
#define RUN_LOAD \
	LEAQ    (AX)(DX*1), R9; \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD (DI)(AX*8), Y1; \
	VMOVUPD (SI)(R9*8), Y2; \
	VMOVUPD (DI)(R9*8), Y3

#define RUN_STORE \
	VMOVUPD Y4, (SI)(AX*8); \
	VMOVUPD Y5, (DI)(AX*8); \
	VMOVUPD Y6, (SI)(R9*8); \
	VMOVUPD Y7, (DI)(R9*8)

// Modes 1 and 2 take two blocks a step: block A at AX from the first
// half of the run and block B at R9 = AX+R13 from the second, R13 being
// half the run's blocks, rounded up — four streams (re and im of both
// halves), as mode 0 reads, where two neighbouring blocks would make two
// and measured 1.2-1.3x slower from L3. The middle block of an odd run
// pairs with itself (R9 = AX): it computes every pair twice and stores
// the same bits twice. AX stops at R14 = p+R13. Over bit 0, VUNPCKLPD and
// VUNPCKHPD gather a0 and a1 from the even and odd lanes of A and B
// ([A0 B0 A2 B2] and [A1 B1 A3 B3]) and the same pair scatters the
// results back; over bit 1, VPERM2F128 gathers the low and high halves
// ([A0 A1 B0 B1] and [A2 A3 B2 B3]).
#define PAIR_HALF \
	MOVQ CX, R13; \
	SUBQ AX, R13; \
	ADDQ BX, R13; \
	SHRQ $1, R13; \
	MOVQ BX, R14; \
	NEGQ R14; \
	ANDQ R14, R13; \
	LEAQ (AX)(R13*1), R14

#define PAIR_NEXT \
	LEAQ    (AX)(R13*1), R9; \
	CMPQ    R9, CX; \
	CMOVQGE AX, R9

#define BIT0_LOAD \
	VMOVUPD   (SI)(AX*8), Y4; \
	VMOVUPD   (SI)(R9*8), Y5; \
	VUNPCKLPD Y5, Y4, Y0; \
	VUNPCKHPD Y5, Y4, Y2; \
	VMOVUPD   (DI)(AX*8), Y6; \
	VMOVUPD   (DI)(R9*8), Y7; \
	VUNPCKLPD Y7, Y6, Y1; \
	VUNPCKHPD Y7, Y6, Y3

#define BIT0_STORE \
	VUNPCKLPD Y6, Y4, Y0; \
	VUNPCKHPD Y6, Y4, Y2; \
	VUNPCKLPD Y7, Y5, Y1; \
	VUNPCKHPD Y7, Y5, Y3; \
	VMOVUPD   Y0, (SI)(AX*8); \
	VMOVUPD   Y1, (DI)(AX*8); \
	VMOVUPD   Y2, (SI)(R9*8); \
	VMOVUPD   Y3, (DI)(R9*8)

#define BIT1_LOAD \
	VMOVUPD    (SI)(AX*8), Y4; \
	VMOVUPD    (SI)(R9*8), Y5; \
	VPERM2F128 $0x20, Y5, Y4, Y0; \
	VPERM2F128 $0x31, Y5, Y4, Y2; \
	VMOVUPD    (DI)(AX*8), Y6; \
	VMOVUPD    (DI)(R9*8), Y7; \
	VPERM2F128 $0x20, Y7, Y6, Y1; \
	VPERM2F128 $0x31, Y7, Y6, Y3

#define BIT1_STORE \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y7, Y5, Y3; \
	VMOVUPD    Y0, (SI)(AX*8); \
	VMOVUPD    Y1, (DI)(AX*8); \
	VMOVUPD    Y2, (SI)(R9*8); \
	VMOVUPD    Y3, (DI)(R9*8)

// Mode 3 (masked): a0 is block A at AX, a1 the partner block at
// R9 = AX+delta (another block) with its lanes lined up by VPERMD (lane
// l <-> l ^ x&3 is its own inverse). Each result is blended with what
// memory holds, keeping the lanes the gate leaves.
#define MASK_LOAD \
	LEAQ    (AX)(DX*1), R9; \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD (DI)(AX*8), Y1; \
	VPERMD  (SI)(R9*8), Y12, Y2; \
	VPERMD  (DI)(R9*8), Y12, Y3

#define MASK_STORE \
	VBLENDVPD Y13, (SI)(AX*8), Y4, Y4; \
	VBLENDVPD Y13, (DI)(AX*8), Y5, Y5; \
	VMOVUPD   Y4, (SI)(AX*8); \
	VMOVUPD   Y5, (DI)(AX*8); \
	VPERMD    Y6, Y12, Y6; \
	VPERMD    Y7, Y12, Y7; \
	VBLENDVPD Y14, (SI)(R9*8), Y6, Y6; \
	VBLENDVPD Y14, (DI)(R9*8), Y7, Y7; \
	VMOVUPD   Y6, (SI)(R9*8); \
	VMOVUPD   Y7, (DI)(R9*8)

// func xAVX2(re, im *float64, p, end, stride int, l *blockLanes)
TEXT ·xAVX2(SB), NOSPLIT, $0-48
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	LANES
	CMPQ R11, $1
	JEQ  bit0
	CMPQ R11, $2
	JEQ  bit1
	CMPQ R11, $3
	JEQ  mask
run:
	RUN_LOAD
	BODY_X
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	MASK_LOAD
	BODY_X
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET
bit0:
	PAIR_HALF
bit0step:
	PAIR_NEXT
	BIT0_LOAD
	BODY_X
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0step
	VZEROUPPER
	RET
bit1:
	PAIR_HALF
bit1step:
	PAIR_NEXT
	BIT1_LOAD
	BODY_X
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1step
	VZEROUPPER
	RET

// func yAVX2(re, im *float64, p, end, stride int, l *blockLanes)
TEXT ·yAVX2(SB), NOSPLIT, $0-48
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	LANES
	VBROADCASTSD signBit<>(SB), Y10
	CMPQ R11, $1
	JEQ  bit0
	CMPQ R11, $2
	JEQ  bit1
	CMPQ R11, $3
	JEQ  mask
run:
	RUN_LOAD
	BODY_Y
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	MASK_LOAD
	BODY_Y
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET
bit0:
	PAIR_HALF
bit0step:
	PAIR_NEXT
	BIT0_LOAD
	BODY_Y
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0step
	VZEROUPPER
	RET
bit1:
	PAIR_HALF
bit1step:
	PAIR_NEXT
	BIT1_LOAD
	BODY_Y
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1step
	VZEROUPPER
	RET

// func hAVX2(re, im *float64, p, end, stride int, l *blockLanes)
TEXT ·hAVX2(SB), NOSPLIT, $0-48
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	LANES
	VBROADCASTSD sqrtHalf<>(SB), Y10
	CMPQ R11, $1
	JEQ  bit0
	CMPQ R11, $2
	JEQ  bit1
	CMPQ R11, $3
	JEQ  mask
run:
	RUN_LOAD
	BODY_H
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	MASK_LOAD
	BODY_H
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET
bit0:
	PAIR_HALF
bit0step:
	PAIR_NEXT
	BIT0_LOAD
	BODY_H
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0step
	VZEROUPPER
	RET
bit1:
	PAIR_HALF
bit1step:
	PAIR_NEXT
	BIT1_LOAD
	BODY_H
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1step
	VZEROUPPER
	RET

// func sxAVX2(re, im *float64, p, end, stride int, l *blockLanes, dg bool)
TEXT ·sxAVX2(SB), NOSPLIT, $0-49
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	LANES
	VBROADCASTSD half<>(SB), Y10
	CMPB dg+48(FP), $0
	JNE  adjoint
	CMPQ R11, $1
	JEQ  bit0
	CMPQ R11, $2
	JEQ  bit1
	CMPQ R11, $3
	JEQ  mask
run:
	RUN_LOAD
	BODY_SX(Y4, Y5, Y6, Y7)
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	MASK_LOAD
	BODY_SX(Y4, Y5, Y6, Y7)
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET
bit0:
	PAIR_HALF
bit0step:
	PAIR_NEXT
	BIT0_LOAD
	BODY_SX(Y4, Y5, Y6, Y7)
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0step
	VZEROUPPER
	RET
bit1:
	PAIR_HALF
bit1step:
	PAIR_NEXT
	BIT1_LOAD
	BODY_SX(Y4, Y5, Y6, Y7)
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1step
	VZEROUPPER
	RET
adjoint:
	CMPQ R11, $1
	JEQ  bit0dg
	CMPQ R11, $2
	JEQ  bit1dg
	CMPQ R11, $3
	JEQ  maskdg
rundg:
	RUN_LOAD
	BODY_SX(Y6, Y7, Y4, Y5)
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  rundg
	VZEROUPPER
	RET
maskdg:
	MASK_LOAD
	BODY_SX(Y6, Y7, Y4, Y5)
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  maskdg
	VZEROUPPER
	RET
bit0dg:
	PAIR_HALF
bit0dgstep:
	PAIR_NEXT
	BIT0_LOAD
	BODY_SX(Y6, Y7, Y4, Y5)
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0dgstep
	VZEROUPPER
	RET
bit1dg:
	PAIR_HALF
bit1dgstep:
	PAIR_NEXT
	BIT1_LOAD
	BODY_SX(Y6, Y7, Y4, Y5)
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1dgstep
	VZEROUPPER
	RET

// func rxAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64)
TEXT ·rxAVX2(SB), NOSPLIT, $0-64
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	LANES
	VBROADCASTSD c+48(FP), Y10
	VBROADCASTSD sn+56(FP), Y11
	CMPQ R11, $1
	JEQ  bit0
	CMPQ R11, $2
	JEQ  bit1
	CMPQ R11, $3
	JEQ  mask
run:
	RUN_LOAD
	BODY_RX
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	MASK_LOAD
	BODY_RX
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET
bit0:
	PAIR_HALF
bit0step:
	PAIR_NEXT
	BIT0_LOAD
	BODY_RX
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0step
	VZEROUPPER
	RET
bit1:
	PAIR_HALF
bit1step:
	PAIR_NEXT
	BIT1_LOAD
	BODY_RX
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1step
	VZEROUPPER
	RET

// func ryAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64)
TEXT ·ryAVX2(SB), NOSPLIT, $0-64
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	LANES
	VBROADCASTSD c+48(FP), Y10
	VBROADCASTSD sn+56(FP), Y11
	CMPQ R11, $1
	JEQ  bit0
	CMPQ R11, $2
	JEQ  bit1
	CMPQ R11, $3
	JEQ  mask
run:
	RUN_LOAD
	BODY_RY
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	MASK_LOAD
	BODY_RY
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET
bit0:
	PAIR_HALF
bit0step:
	PAIR_NEXT
	BIT0_LOAD
	BODY_RY
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0step
	VZEROUPPER
	RET
bit1:
	PAIR_HALF
bit1step:
	PAIR_NEXT
	BIT1_LOAD
	BODY_RY
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1step
	VZEROUPPER
	RET

// func u2AVX2(re, im *float64, p, end, stride int, l *blockLanes, u *[8][4]float64)
TEXT ·u2AVX2(SB), NOSPLIT, $0-56
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	LANES
	MOVQ u+48(FP), R12
	CMPQ R11, $1
	JEQ  bit0
	CMPQ R11, $2
	JEQ  bit1
	CMPQ R11, $3
	JEQ  mask
	VMOVUPD 0(R12), Y8
	VMOVUPD 32(R12), Y9
	VMOVUPD 64(R12), Y10
	VMOVUPD 96(R12), Y11
	VMOVUPD 128(R12), Y12
	VMOVUPD 160(R12), Y13
	VMOVUPD 192(R12), Y14
	VMOVUPD 224(R12), Y15
run:
	RUN_LOAD
	BODY_U2(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	RUN_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	MASK_LOAD
	BODY_U2(0(R12), 32(R12), 64(R12), 96(R12), 128(R12), 160(R12), 192(R12), 224(R12))
	MASK_STORE
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET
bit0:
	PAIR_HALF
bit0step:
	PAIR_NEXT
	BIT0_LOAD
	BODY_U2(0(R12), 32(R12), 64(R12), 96(R12), 128(R12), 160(R12), 192(R12), 224(R12))
	BIT0_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit0step
	VZEROUPPER
	RET
bit1:
	PAIR_HALF
bit1step:
	PAIR_NEXT
	BIT1_LOAD
	BODY_U2(0(R12), 32(R12), 64(R12), 96(R12), 128(R12), 160(R12), 192(R12), 224(R12))
	BIT1_STORE
	ADDQ BX, AX
	CMPQ AX, R14
	JLT  bit1step
	VZEROUPPER
	RET

// func pauliRotAVX2(re, im *float64, p, n, x, z int, c float64, k *pauliLanes, cross bool)
// AX walks the 4-chunks P of [p, p+n); BX is the partner chunk
// Q = (P^x) &^ 3, whose lanes VPERMD by Y13 lines up with P's on the load
// and puts back on the store (lane l <-> l ^ x&3 is its own inverse).
// Y8..Y11 are tr[a] ti[a] tr[b] ti[b] for the lane bits; a chunk XORs the
// sign of parity(P & z) into copies Y4..Y7 — into the coefficient, as Go
// indexes tr/ti, never into a product. Y0..Y3 are re[p] im[p] re[q] im[q].
// The real loop reads the partner's components in place (ur, ui = re,
// im), the cross loop swapped (ur, ui = im, re).
TEXT ·pauliRotAVX2(SB), NOSPLIT, $0-65
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ n+24(FP), CX
	ADDQ AX, CX
	MOVQ x+32(FP), R8
	MOVQ z+40(FP), R9
	VBROADCASTSD c+48(FP), Y12
	MOVQ k+56(FP), DX
	VMOVUPD 0(DX), Y8
	VMOVUPD 32(DX), Y9
	VMOVUPD 64(DX), Y10
	VMOVUPD 96(DX), Y11
	VMOVDQU 128(DX), Y13
	LEAQ chunkSign<>(SB), R10
	CMPB cross+64(FP), $0
	JNE  crossed
real:
	MOVQ    AX, BX
	XORQ    R8, BX
	ANDQ    $-4, BX         // Q
	MOVQ    AX, DX
	ANDQ    R9, DX
	POPCNTQ DX, DX
	ANDQ    $1, DX
	SHLQ    $5, DX
	VMOVUPD (R10)(DX*1), Y14 // the chunk parity's sign
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VPERMD  (SI)(BX*8), Y13, Y2
	VPERMD  (DI)(BX*8), Y13, Y3
	VXORPD  Y14, Y8, Y4     // tr[a]
	VXORPD  Y14, Y9, Y5     // ti[a]
	VXORPD  Y14, Y10, Y6    // tr[b]
	VXORPD  Y14, Y11, Y7    // ti[b]
	VMULPD  Y12, Y0, Y15    // c*re[p]
	VMULPD  Y2, Y4, Y4      // tr[a]*ur[q]
	VADDPD  Y4, Y15, Y4     // pr
	VMULPD  Y12, Y1, Y15    // c*im[p]
	VMULPD  Y3, Y5, Y5      // ti[a]*ui[q]
	VADDPD  Y5, Y15, Y5     // pi
	VMULPD  Y12, Y2, Y15    // c*re[q]
	VMULPD  Y0, Y6, Y6      // tr[b]*ur[p]
	VADDPD  Y6, Y15, Y6     // qr
	VMULPD  Y12, Y3, Y15    // c*im[q]
	VMULPD  Y1, Y7, Y7      // ti[b]*ui[p]
	VADDPD  Y7, Y15, Y7     // qi
	VPERMD  Y6, Y13, Y6
	VPERMD  Y7, Y13, Y7
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, (SI)(BX*8)
	VMOVUPD Y7, (DI)(BX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     real
	VZEROUPPER
	RET
crossed:
	MOVQ    AX, BX
	XORQ    R8, BX
	ANDQ    $-4, BX         // Q
	MOVQ    AX, DX
	ANDQ    R9, DX
	POPCNTQ DX, DX
	ANDQ    $1, DX
	SHLQ    $5, DX
	VMOVUPD (R10)(DX*1), Y14 // the chunk parity's sign
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VPERMD  (SI)(BX*8), Y13, Y2
	VPERMD  (DI)(BX*8), Y13, Y3
	VXORPD  Y14, Y8, Y4     // tr[a]
	VXORPD  Y14, Y9, Y5     // ti[a]
	VXORPD  Y14, Y10, Y6    // tr[b]
	VXORPD  Y14, Y11, Y7    // ti[b]
	VMULPD  Y12, Y0, Y15    // c*re[p]
	VMULPD  Y3, Y4, Y4      // tr[a]*ur[q]
	VADDPD  Y4, Y15, Y4     // pr
	VMULPD  Y12, Y1, Y15    // c*im[p]
	VMULPD  Y2, Y5, Y5      // ti[a]*ui[q]
	VADDPD  Y5, Y15, Y5     // pi
	VMULPD  Y12, Y2, Y15    // c*re[q]
	VMULPD  Y1, Y6, Y6      // tr[b]*ur[p]
	VADDPD  Y6, Y15, Y6     // qr
	VMULPD  Y12, Y3, Y15    // c*im[q]
	VMULPD  Y0, Y7, Y7      // ti[b]*ui[p]
	VADDPD  Y7, Y15, Y7     // qi
	VPERMD  Y6, Y13, Y6
	VPERMD  Y7, Y13, Y7
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, (SI)(BX*8)
	VMOVUPD Y7, (DI)(BX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     crossed
	VZEROUPPER
	RET

// func phaseAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64)
// One block a step; mode 3 blends back the amplitudes the gate leaves.
TEXT ·phaseAVX2(SB), NOSPLIT, $0-64
	MOVQ re+0(FP), SI
	MOVQ im+8(FP), DI
	MOVQ p+16(FP), AX
	MOVQ end+24(FP), CX
	MOVQ stride+32(FP), BX
	MOVQ l+40(FP), R8
	VMOVUPD 48(R8), Y13
	VBROADCASTSD c+48(FP), Y10
	VBROADCASTSD sn+56(FP), Y11
	CMPQ 0(R8), $3
	JEQ  mask
run:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	BODY_PHASE
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  run
	VZEROUPPER
	RET
mask:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (DI)(AX*8), Y1
	BODY_PHASE
	VBLENDVPD Y13, (SI)(AX*8), Y4, Y4
	VBLENDVPD Y13, (DI)(AX*8), Y5, Y5
	VMOVUPD   Y4, (SI)(AX*8)
	VMOVUPD   Y5, (DI)(AX*8)
	ADDQ BX, AX
	CMPQ AX, CX
	JLT  mask
	VZEROUPPER
	RET

// TABLE4(lo, t, k, fr, fi) gathers the table entries t[k|lo[v+l]] of the
// four lanes l of a diagonal-run step, v in AX, into their real parts fr
// and imaginary parts fi. Each (re, im) entry is one 16-byte load at the
// scalar key in DX: lanes 0 and 2 fill the halves of Y14, lanes 1 and 3
// those of Y15, so one unpack pair splits them without a cross-lane
// permute.
#define TABLE4(lo, t, k, fr, fi) \
	MOVWQZX     0(lo)(AX*2), DX; \
	ORQ         k, DX; \
	SHLQ        $4, DX; \
	VMOVUPD     (t)(DX*1), X14; \
	MOVWQZX     4(lo)(AX*2), DX; \
	ORQ         k, DX; \
	SHLQ        $4, DX; \
	VINSERTF128 $1, (t)(DX*1), Y14, Y14; \
	MOVWQZX     2(lo)(AX*2), DX; \
	ORQ         k, DX; \
	SHLQ        $4, DX; \
	VMOVUPD     (t)(DX*1), X15; \
	MOVWQZX     6(lo)(AX*2), DX; \
	ORQ         k, DX; \
	SHLQ        $4, DX; \
	VINSERTF128 $1, (t)(DX*1), Y15, Y15; \
	VUNPCKLPD   Y15, Y14, fr; \
	VUNPCKHPD   Y15, Y14, fi

// func diagBlock1AVX2(r, i *float64, off int, visit *uint16, n int, lo0 *uint16, t0 *[2]float64, k0 int)
// BX walks every fourth value of visit up to CX; SI and DI address the
// block (r, i minus off, never dereferenced below the window), so a
// step's amplitudes are at v in AX. mulAmp(r, i, fr, fi) = (fr*r - fi*i,
// fi*r + fr*i) with (fr, fi) the entry.
TEXT ·diagBlock1AVX2(SB), NOSPLIT, $0-64
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ off+16(FP), DX
	LEAQ (SI)(DX*8), SI
	LEAQ (DI)(DX*8), DI
	MOVQ visit+24(FP), BX
	MOVQ n+32(FP), CX
	LEAQ (BX)(CX*2), CX
	MOVQ lo0+40(FP), R8
	MOVQ t0+48(FP), R10
	MOVQ k0+56(FP), R12
loop:
	MOVWQZX (BX), AX        // v
	TABLE4(R8, R10, R12, Y2, Y3) // fr, fi = t0[k0|lo0[v+l]]
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  Y2, Y0, Y4      // fr*r
	VMULPD  Y3, Y1, Y5      // fi*i
	VSUBPD  Y5, Y4, Y4      // fr*r - fi*i
	VMULPD  Y3, Y0, Y5      // fi*r
	VMULPD  Y2, Y1, Y6      // fr*i
	VADDPD  Y6, Y5, Y5      // fi*r + fr*i
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JNE     loop
	VZEROUPPER
	RET

// func diagBlock2AVX2(r, i *float64, off int, visit *uint16, n int, lo0, lo1 *uint16, t0, t1 *[2]float64, k0, k1 int)
// The walk of diagBlock1AVX2 and two mulAmps: the factor (fr, fi) =
// mulAmp(a[0], a[1], b[0], b[1]) of the entries a = t0[k0|lo0[v+l]] and
// b = t1[k1|lo1[v+l]], then the amplitude.
TEXT ·diagBlock2AVX2(SB), NOSPLIT, $0-88
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ off+16(FP), DX
	LEAQ (SI)(DX*8), SI
	LEAQ (DI)(DX*8), DI
	MOVQ visit+24(FP), BX
	MOVQ n+32(FP), CX
	LEAQ (BX)(CX*2), CX
	MOVQ lo0+40(FP), R8
	MOVQ lo1+48(FP), R9
	MOVQ t0+56(FP), R10
	MOVQ t1+64(FP), R11
	MOVQ k0+72(FP), R12
	MOVQ k1+80(FP), R13
loop:
	MOVWQZX (BX), AX        // v
	TABLE4(R8, R10, R12, Y2, Y3) // a[0], a[1]
	TABLE4(R9, R11, R13, Y4, Y5) // b[0], b[1]
	VMULPD  Y4, Y2, Y6      // b0*a0
	VMULPD  Y5, Y3, Y7      // b1*a1
	VSUBPD  Y7, Y6, Y6      // fr = b0*a0 - b1*a1
	VMULPD  Y5, Y2, Y7      // b1*a0
	VMULPD  Y4, Y3, Y8      // b0*a1
	VADDPD  Y8, Y7, Y7      // fi = b1*a0 + b0*a1
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  Y6, Y0, Y2      // fr*r
	VMULPD  Y7, Y1, Y3      // fi*i
	VSUBPD  Y3, Y2, Y2      // fr*r - fi*i
	VMULPD  Y7, Y0, Y3      // fi*r
	VMULPD  Y6, Y1, Y4      // fr*i
	VADDPD  Y4, Y3, Y3      // fi*r + fr*i
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $8, BX
	CMPQ    BX, CX
	JNE     loop
	VZEROUPPER
	RET
