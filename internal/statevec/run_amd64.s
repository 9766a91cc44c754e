#include "textflag.h"

// The AVX2 twins of the run bodies in kernels.go, of the Pauli rotation
// and of a diagonal run's block (see run_amd64.go for the contract).
// Every loop is one shape: load the four (pairing) or two (element-wise,
// diagonal run) YMM operands of a step, compute, store — all loads
// before any store, four amplitudes a step, AX counting to n (from p to
// p+n in pauliRotAVX2, which indexes the whole window; in the diagonal
// runs BX walks the step starts of the visit list, and TABLE4 gathers the
// step's factors from the tables by key). The
// arithmetic of each twin is its Go body's expression written out one
// operation per instruction; the comment on an instruction names the Go
// subexpression it computes. Three-operand AVX reads right to left:
// VSUBPD b, a, c is c = a - b.

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

// func xAVX2(r0, i0, r1, i1 *float64, n int)
TEXT ·xAVX2(SB), NOSPLIT, $0-40
	MOVQ r0+0(FP), SI
	MOVQ i0+8(FP), DI
	MOVQ r1+16(FP), R8
	MOVQ i1+24(FP), R9
	MOVQ n+32(FP), CX
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y0, (R8)(AX*8)
	VMOVUPD Y1, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func yAVX2(r0, i0, r1, i1 *float64, n int)
TEXT ·yAVX2(SB), NOSPLIT, $0-40
	MOVQ r0+0(FP), SI
	MOVQ i0+8(FP), DI
	MOVQ r1+16(FP), R8
	MOVQ i1+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD signBit<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VXORPD  Y14, Y2, Y2     // -r1
	VXORPD  Y14, Y1, Y1     // -i0
	VMOVUPD Y3, (SI)(AX*8)  // re[p] = i1
	VMOVUPD Y2, (DI)(AX*8)  // im[p] = -r1
	VMOVUPD Y1, (R8)(AX*8)  // re[p+d] = -i0
	VMOVUPD Y0, (R9)(AX*8)  // im[p+d] = r0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func hAVX2(r0, i0, r1, i1 *float64, n int)
TEXT ·hAVX2(SB), NOSPLIT, $0-40
	MOVQ r0+0(FP), SI
	MOVQ i0+8(FP), DI
	MOVQ r1+16(FP), R8
	MOVQ i1+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD sqrtHalf<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VADDPD  Y2, Y0, Y4      // r0+r1
	VADDPD  Y3, Y1, Y5      // i0+i1
	VSUBPD  Y2, Y0, Y6      // r0-r1
	VSUBPD  Y3, Y1, Y7      // i0-i1
	VMULPD  Y14, Y4, Y4
	VMULPD  Y14, Y5, Y5
	VMULPD  Y14, Y6, Y6
	VMULPD  Y14, Y7, Y7
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, (R8)(AX*8)
	VMOVUPD Y7, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func sxAVX2(r0, i0, r1, i1 *float64, n int, dg bool)
// R10..R13 are the output slots: (r0, i0), (r1, i1), exchanged for dg.
TEXT ·sxAVX2(SB), NOSPLIT, $0-41
	MOVQ r0+0(FP), SI
	MOVQ i0+8(FP), DI
	MOVQ r1+16(FP), R8
	MOVQ i1+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ R8, R12
	MOVQ R9, R13
	CMPB dg+40(FP), $0
	JEQ  slots
	XCHGQ R10, R12
	XCHGQ R11, R13
slots:
	VBROADCASTSD half<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VADDPD  Y2, Y0, Y4      // sr = r0+r1
	VADDPD  Y3, Y1, Y5      // si = i0+i1
	VSUBPD  Y2, Y0, Y6      // dr = r0-r1
	VSUBPD  Y3, Y1, Y7      // di = i0-i1
	VSUBPD  Y7, Y4, Y8      // sr-di
	VADDPD  Y6, Y5, Y9      // si+dr
	VADDPD  Y7, Y4, Y10     // sr+di
	VSUBPD  Y6, Y5, Y11     // si-dr
	VMULPD  Y14, Y8, Y8
	VMULPD  Y14, Y9, Y9
	VMULPD  Y14, Y10, Y10
	VMULPD  Y14, Y11, Y11
	VMOVUPD Y8, (R10)(AX*8)
	VMOVUPD Y9, (R11)(AX*8)
	VMOVUPD Y10, (R12)(AX*8)
	VMOVUPD Y11, (R13)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func rxAVX2(r0, i0, r1, i1 *float64, n int, c, sn float64)
TEXT ·rxAVX2(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), SI
	MOVQ i0+8(FP), DI
	MOVQ r1+16(FP), R8
	MOVQ i1+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD c+40(FP), Y13
	VBROADCASTSD sn+48(FP), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VMULPD  Y13, Y0, Y4     // c*r0
	VMULPD  Y14, Y3, Y5     // sn*i1
	VMULPD  Y13, Y1, Y6     // c*i0
	VMULPD  Y14, Y2, Y7     // sn*r1
	VMULPD  Y13, Y2, Y8     // c*r1
	VMULPD  Y14, Y1, Y9     // sn*i0
	VMULPD  Y13, Y3, Y10    // c*i1
	VMULPD  Y14, Y0, Y11    // sn*r0
	VADDPD  Y5, Y4, Y4      // c*r0 + sn*i1
	VSUBPD  Y7, Y6, Y6      // c*i0 - sn*r1
	VADDPD  Y9, Y8, Y8      // c*r1 + sn*i0
	VSUBPD  Y11, Y10, Y10   // c*i1 - sn*r0
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y8, (R8)(AX*8)
	VMOVUPD Y10, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func ryAVX2(r0, i0, r1, i1 *float64, n int, c, sn float64)
TEXT ·ryAVX2(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), SI
	MOVQ i0+8(FP), DI
	MOVQ r1+16(FP), R8
	MOVQ i1+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD c+40(FP), Y13
	VBROADCASTSD sn+48(FP), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VMULPD  Y13, Y0, Y4     // c*r0
	VMULPD  Y14, Y2, Y5     // sn*r1
	VMULPD  Y13, Y1, Y6     // c*i0
	VMULPD  Y14, Y3, Y7     // sn*i1
	VMULPD  Y14, Y0, Y8     // sn*r0
	VMULPD  Y13, Y2, Y9     // c*r1
	VMULPD  Y14, Y1, Y10    // sn*i0
	VMULPD  Y13, Y3, Y11    // c*i1
	VSUBPD  Y5, Y4, Y4      // c*r0 - sn*r1
	VSUBPD  Y7, Y6, Y6      // c*i0 - sn*i1
	VADDPD  Y9, Y8, Y8      // sn*r0 + c*r1
	VADDPD  Y11, Y10, Y10   // sn*i0 + c*i1
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y8, (R8)(AX*8)
	VMOVUPD Y10, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func u2AVX2(r0, i0, r1, i1 *float64, n int, u *[8]float64)
// Y6..Y13 hold ar ai br bi cr ci dr di; each output is the left-to-right
// chain ((x*r0 -+ y*i0) + z*r1) -+ w*i1 of its Go expression.
TEXT ·u2AVX2(SB), NOSPLIT, $0-48
	MOVQ r0+0(FP), SI
	MOVQ i0+8(FP), DI
	MOVQ r1+16(FP), R8
	MOVQ i1+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ u+40(FP), DX
	VBROADCASTSD 0(DX), Y6  // ar
	VBROADCASTSD 8(DX), Y7  // ai
	VBROADCASTSD 16(DX), Y8 // br
	VBROADCASTSD 24(DX), Y9 // bi
	VBROADCASTSD 32(DX), Y10 // cr
	VBROADCASTSD 40(DX), Y11 // ci
	VBROADCASTSD 48(DX), Y12 // dr
	VBROADCASTSD 56(DX), Y13 // di
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3

	VMULPD  Y6, Y0, Y4      // ar*r0
	VMULPD  Y7, Y1, Y5      // ai*i0
	VSUBPD  Y5, Y4, Y4      // ar*r0 - ai*i0
	VMULPD  Y8, Y2, Y5      // br*r1
	VADDPD  Y5, Y4, Y4      // ... + br*r1
	VMULPD  Y9, Y3, Y5      // bi*i1
	VSUBPD  Y5, Y4, Y4      // ... - bi*i1
	VMOVUPD Y4, (SI)(AX*8)  // re[p]

	VMULPD  Y6, Y1, Y4      // ar*i0
	VMULPD  Y7, Y0, Y5      // ai*r0
	VADDPD  Y5, Y4, Y4      // ar*i0 + ai*r0
	VMULPD  Y8, Y3, Y5      // br*i1
	VADDPD  Y5, Y4, Y4      // ... + br*i1
	VMULPD  Y9, Y2, Y5      // bi*r1
	VADDPD  Y5, Y4, Y4      // ... + bi*r1
	VMOVUPD Y4, (DI)(AX*8)  // im[p]

	VMULPD  Y10, Y0, Y4     // cr*r0
	VMULPD  Y11, Y1, Y5     // ci*i0
	VSUBPD  Y5, Y4, Y4      // cr*r0 - ci*i0
	VMULPD  Y12, Y2, Y5     // dr*r1
	VADDPD  Y5, Y4, Y4      // ... + dr*r1
	VMULPD  Y13, Y3, Y5     // di*i1
	VSUBPD  Y5, Y4, Y4      // ... - di*i1
	VMOVUPD Y4, (R8)(AX*8)  // re[p+d]

	VMULPD  Y10, Y1, Y4     // cr*i0
	VMULPD  Y11, Y0, Y5     // ci*r0
	VADDPD  Y5, Y4, Y4      // cr*i0 + ci*r0
	VMULPD  Y12, Y3, Y5     // dr*i1
	VADDPD  Y5, Y4, Y4      // ... + dr*i1
	VMULPD  Y13, Y2, Y5     // di*r1
	VADDPD  Y5, Y4, Y4      // ... + di*r1
	VMOVUPD Y4, (R9)(AX*8)  // im[p+d]

	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
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

// func zAVX2(r, i *float64, n int)
TEXT ·zAVX2(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD signBit<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VXORPD  Y14, Y0, Y0
	VXORPD  Y14, Y1, Y1
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func sAVX2(r, i *float64, n int)
TEXT ·sAVX2(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD signBit<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VXORPD  Y14, Y1, Y1     // -im[p]
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func sdgAVX2(r, i *float64, n int)
TEXT ·sdgAVX2(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD signBit<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VXORPD  Y14, Y0, Y0     // -re[p]
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func tAVX2(r, i *float64, n int)
TEXT ·tAVX2(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD sqrtHalf<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VSUBPD  Y1, Y0, Y2      // r-i
	VADDPD  Y1, Y0, Y3      // r+i
	VMULPD  Y14, Y2, Y2
	VMULPD  Y14, Y3, Y3
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func tdgAVX2(r, i *float64, n int)
TEXT ·tdgAVX2(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD sqrtHalf<>(SB), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  Y1, Y0, Y2      // r+i
	VSUBPD  Y0, Y1, Y3      // i-r
	VMULPD  Y14, Y2, Y2
	VMULPD  Y14, Y3, Y3
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func phaseAVX2(r, i *float64, n int, c, sn float64)
TEXT ·phaseAVX2(SB), NOSPLIT, $0-40
	MOVQ r+0(FP), SI
	MOVQ i+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD c+24(FP), Y13
	VBROADCASTSD sn+32(FP), Y14
	XORQ AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  Y13, Y0, Y2     // c*r
	VMULPD  Y14, Y1, Y3     // sn*i
	VMULPD  Y14, Y0, Y4     // sn*r
	VMULPD  Y13, Y1, Y5     // c*i
	VSUBPD  Y3, Y2, Y2      // c*r - sn*i
	VADDPD  Y5, Y4, Y4      // sn*r + c*i
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
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
