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
