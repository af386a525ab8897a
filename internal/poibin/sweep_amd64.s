#include "textflag.h"

// The vector bodies compute each cell with the scalar code's rounded
// operations — VMULPD, VMULPD, VADDPD — and never VFMADD, so their results
// are bit-identical to sweepDownGeneric and axpyGeneric (sweep.go).

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done               // no leaf 7: no AVX2 bit to read
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX    // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV                  // XCR0 into DX:AX
	ANDL $6, AX             // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX             // AVX2
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

// func sweepDownAVX2(d []float64, lo, hi int, q, p float64)
//
// DI points at the highest cell c not yet updated; a block of four covers
// d[c-3..c] and reads d[c-4..c-1]. Both are loaded before the block is
// stored, and lower blocks never read above their own top, so every read
// sees the previous round.
TEXT ·sweepDownAVX2(SB), NOSPLIT, $0-56
	MOVQ         d_base+0(FP), SI
	MOVQ         lo+24(FP), AX
	MOVQ         hi+32(FP), BX
	MOVQ         BX, CX
	SUBQ         AX, CX
	INCQ         CX                   // cells in the band
	LEAQ         (SI)(BX*8), DI
	VBROADCASTSD q+40(FP), Y14
	VBROADCASTSD p+48(FP), Y15

sweep8:
	CMPQ    CX, $8
	JLT     sweep4
	VMOVUPD -24(DI), Y0
	VMOVUPD -32(DI), Y1
	VMOVUPD -56(DI), Y2
	VMOVUPD -64(DI), Y3
	VMULPD  Y14, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y14, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y0, -24(DI)
	VMOVUPD Y2, -56(DI)
	SUBQ    $64, DI
	SUBQ    $8, CX
	JMP     sweep8

sweep4:
	CMPQ    CX, $4
	JLT     sweep1
	VMOVUPD -24(DI), Y0
	VMOVUPD -32(DI), Y1
	VMULPD  Y14, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, -24(DI)
	SUBQ    $32, DI
	SUBQ    $4, CX

sweep1:
	TESTQ  CX, CX
	JEQ    sweepdone
	VMOVSD (DI), X0
	VMOVSD -8(DI), X1
	VMULSD X14, X0, X0
	VMULSD X15, X1, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)
	SUBQ   $8, DI
	DECQ   CX
	JMP    sweep1

sweepdone:
	VZEROUPPER
	RET

// func axpyAVX2(dst, src []float64, a float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y15

axpy8:
	CMPQ    CX, $8
	JLT     axpy4
	VMULPD  (SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy4:
	CMPQ    CX, $4
	JLT     axpy1
	VMULPD  (SI), Y15, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

axpy1:
	TESTQ  CX, CX
	JEQ    axpydone
	VMOVSD (SI), X0
	VMULSD X15, X0, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func bandCellsAVX2(cell, row, next []float64, p, q float64)
//
// Per cell: a = p·next[r], t = a + q·next[r+1], row[r] = t, cell[r] = a/t —
// VMULPD, VMULPD, VADDPD, VDIVPD, each correctly rounded like the scalar
// operation.
TEXT ·bandCellsAVX2(SB), NOSPLIT, $0-88
	MOVQ         cell_base+0(FP), DI
	MOVQ         row_base+24(FP), BX
	MOVQ         row_len+32(FP), CX
	MOVQ         next_base+48(FP), SI
	VBROADCASTSD p+72(FP), Y14
	VBROADCASTSD q+80(FP), Y15

band4:
	CMPQ    CX, $4
	JLT     band1
	VMULPD  (SI), Y14, Y0
	VMULPD  8(SI), Y15, Y1
	VADDPD  Y1, Y0, Y1
	VMOVUPD Y1, (BX)
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     band4

band1:
	TESTQ  CX, CX
	JEQ    banddone
	VMOVSD (SI), X0
	VMULSD X14, X0, X0
	VMOVSD 8(SI), X1
	VMULSD X15, X1, X1
	VADDSD X1, X0, X1
	VMOVSD X1, (BX)
	VDIVSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JMP    band1

banddone:
	VZEROUPPER
	RET

// func tailDPAVX2(dist, probs []float64, k int) float64
//
// Every round of tailDP (kernel.go) in one routine: the p = 1 offset
// shift, the absorb into acc, q = 1 − p, the band sweep and d[0] *= q. The
// scalar arithmetic is VEX-encoded (VSUBSD, VMULSD, VADDSD), so no SSE/AVX
// transition occurs between the vector blocks. The band is the sweep8/4/1
// body of sweepDownAVX2, rounded down to a multiple of eight cells through
// cells below the floor — dead cells, never read again — but never below
// physical cell 1. The caller zeroes dist, sets dist[0] = 1 and
// guarantees 1 ≤ k ≤ len(probs) and len(dist) = k+1.
//
// Registers: SI dist, R8 the next tuple, R9 tuples left, R10 k, R11 the
// logical floor lo = k − n + idx + 1, R12 off, R13 hi, BX k − 1 − off (the
// cell that feeds the absorbing bucket), X12 1.0, X13 acc, X14/Y14 q,
// X15/Y15 p.
TEXT ·tailDPAVX2(SB), NOSPLIT, $0-64
	MOVQ   dist_base+0(FP), SI
	MOVQ   probs_base+24(FP), R8
	MOVQ   probs_len+32(FP), R9
	MOVQ   k+48(FP), R10
	MOVQ   R10, R11
	SUBQ   R9, R11
	INCQ   R11                  // lo = k − n + 1
	XORQ   R12, R12             // off = 0
	XORQ   R13, R13             // hi = 0
	LEAQ   -1(R10), BX          // k − 1 − off
	MOVQ   $0x3FF0000000000000, AX
	VMOVQ  AX, X12              // 1.0
	VXORPD X13, X13, X13        // acc = 0

round:
	TESTQ    R9, R9
	JEQ      dpdone
	CMPQ     R13, R10
	JGE      hiset
	INCQ     R13                // hi < k: hi++

hiset:
	VMOVSD   (R8), X15
	VUCOMISD X12, X15
	JNE      generic
	JPS      generic

	// p = 1: the round is the shift off++, absorbing dist[k−1−off]·1.
	CMPQ   R13, R10
	JNE    shifted
	VADDSD (SI)(BX*8), X13, X13

shifted:
	INCQ R12
	DECQ BX
	CMPQ R12, R10
	JGE  dpdone                 // off ≥ k: all mass absorbed
	JMP  next

generic:
	VSUBSD X15, X12, X14        // q = 1 − p
	MOVQ   R13, DX
	SUBQ   R12, DX              // hi − off
	CMPQ   R13, R10
	JNE    band
	VMULSD (SI)(BX*8), X15, X0
	VADDSD X0, X13, X13         // acc += dist[k−1−off]·p
	MOVQ   BX, DX               // top = k − 1

band:
	// DX is the band's top physical cell; its floor is max(lo − off, 1).
	MOVQ R11, CX
	SUBQ R12, CX
	CMPQ CX, $1
	JGE  floorset
	MOVQ $1, CX

floorset:
	NEGQ CX
	LEAQ 1(DX)(CX*1), CX        // cells in the band
	TESTQ CX, CX
	JLE  cell0
	ADDQ $7, CX
	ANDQ $-8, CX                // rounded up to eight cells ...
	CMPQ CX, DX
	JLE  bandset
	MOVQ DX, CX                 // ... but never below physical cell 1

bandset:
	VBROADCASTSD X14, Y14
	VBROADCASTSD X15, Y15
	LEAQ         (SI)(DX*8), DI

dp8:
	CMPQ    CX, $8
	JLT     dp4
	VMOVUPD -24(DI), Y0
	VMOVUPD -32(DI), Y1
	VMOVUPD -56(DI), Y2
	VMOVUPD -64(DI), Y3
	VMULPD  Y14, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y14, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y0, -24(DI)
	VMOVUPD Y2, -56(DI)
	SUBQ    $64, DI
	SUBQ    $8, CX
	JMP     dp8

dp4:
	CMPQ    CX, $4
	JLT     dp1
	VMOVUPD -24(DI), Y0
	VMOVUPD -32(DI), Y1
	VMULPD  Y14, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, -24(DI)
	SUBQ    $32, DI
	SUBQ    $4, CX

dp1:
	TESTQ  CX, CX
	JEQ    cell0
	VMOVSD (DI), X0
	VMOVSD -8(DI), X1
	VMULSD X14, X0, X0
	VMULSD X15, X1, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)
	SUBQ   $8, DI
	DECQ   CX
	JMP    dp1

cell0:
	CMPQ   R11, R12
	JGT    next                 // lo > off: physical cell 0 is dead
	VMULSD (SI), X14, X0
	VMOVSD X0, (SI)             // d[0] *= q

next:
	ADDQ $8, R8
	DECQ R9
	INCQ R11
	JMP  round

dpdone:
	VMOVSD X13, ret+56(FP)
	VZEROUPPER
	RET
