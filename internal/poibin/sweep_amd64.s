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

// pairPass<> applies two band rounds in one walk down the band (DESIGN
// §13). Round 1 is d′[c] = d[c]·q1 + d[c−1]·p1 and round 2 is
// d″[c] = d′[c]·q2 + d′[c−1]·p2; only d″ is stored. The walk goes down in
// four-cell blocks and computes round 1 one block ahead, so round 1 never
// goes back to memory: round 2's lower-neighbour vector d′[c−4..c−1] is
// spliced from the round-1 blocks d′[c−7..c−4] and d′[c−3..c] by
// VPERM2F128 and VSHUFPD. Each cell still gets round 1's two products and
// add, then round 2's, in that order; only independent cells change their
// time order, so the bits equal two sweepDownGeneric rounds.
//
// In: DI points at cell T, the top round-2 cell; CX is the number of
// round-2 cells, a positive multiple of four; Y14/Y15 hold q1/p1 and
// Y12/Y13 q2/p2. Round 1 is computed on cells T−CX−3…T, so the walk reads
// d[T−CX−4…T] and writes d[T−CX+1…T]. Clobbers Y0–Y4, CX and DI.
TEXT pairPass<>(SB), NOSPLIT, $0-0
	VMOVUPD -24(DI), Y0
	VMOVUPD -32(DI), Y1
	VMULPD  Y14, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VADDPD  Y1, Y0, Y0               // d′[c−3..c], c = T
	SUBQ    $8, CX
	JLT     pair4

pair8:
	VMOVUPD    -56(DI), Y1
	VMOVUPD    -64(DI), Y2
	VMOVUPD    -88(DI), Y3
	VMOVUPD    -96(DI), Y4
	VMULPD     Y14, Y1, Y1
	VMULPD     Y15, Y2, Y2
	VMULPD     Y14, Y3, Y3
	VMULPD     Y15, Y4, Y4
	VADDPD     Y2, Y1, Y1            // d′[c−7..c−4]
	VADDPD     Y4, Y3, Y3            // d′[c−11..c−8]
	VPERM2F128 $0x21, Y0, Y1, Y2     // d′[c−5], d′[c−4], d′[c−3], d′[c−2]
	VSHUFPD    $5, Y0, Y2, Y2        // d′[c−4..c−1]
	VPERM2F128 $0x21, Y1, Y3, Y4
	VSHUFPD    $5, Y1, Y4, Y4        // d′[c−8..c−5]
	VMULPD     Y12, Y0, Y0
	VMULPD     Y13, Y2, Y2
	VMULPD     Y12, Y1, Y1
	VMULPD     Y13, Y4, Y4
	VADDPD     Y2, Y0, Y0
	VADDPD     Y4, Y1, Y1
	VMOVUPD    Y0, -24(DI)           // d″[c−3..c]
	VMOVUPD    Y1, -56(DI)           // d″[c−7..c−4]
	VMOVAPD    Y3, Y0                // the next block's d′[c−3..c]
	SUBQ       $64, DI
	SUBQ       $8, CX
	JGE        pair8

pair4:
	ADDQ       $8, CX                // 0 or 4 cells left
	JEQ        pairdone
	VMOVUPD    -56(DI), Y1
	VMOVUPD    -64(DI), Y2
	VMULPD     Y14, Y1, Y1
	VMULPD     Y15, Y2, Y2
	VADDPD     Y2, Y1, Y1
	VPERM2F128 $0x21, Y0, Y1, Y2
	VSHUFPD    $5, Y0, Y2, Y2
	VMULPD     Y12, Y0, Y0
	VMULPD     Y13, Y2, Y2
	VADDPD     Y2, Y0, Y0
	VMOVUPD    Y0, -24(DI)

pairdone:
	RET

// func tailDPAVX2(buf, probs []float64, k int) float64
//
// Every round of tailDP (kernel.go) in one routine. Cell c lives at
// buf[8+c]: the caller zeroes buf, sets cell 0 to 1 and guarantees
// 1 ≤ k ≤ len(probs) and len(buf) = k+9. The eight zero guard cells below
// cell 0 make it an ordinary band cell (d[0]·q + 0·p = d[0]·q exactly)
// and let a band widen downward to whole blocks; every band write there
// is a product of zeros, so the guard stays zero.
//
// A certain tuple (p = 1) is the shift off++, absorbing cell k−1−off.
// Every other tuple is a band round, and band rounds pair up: round 1's
// absorb reads the cells as they are; then each certain tuple up to the
// next band round absorbs round 1's value of its cell, computed on the
// spot with round 1's scalar operations; round 2's absorb is round 1's
// value times p2. All go into acc in tuple order. One pairPass then
// applies both bands: round 2's band is [max(lo − off, 0), top] at round
// 2's lo, off and top, widened downward to whole four-cell blocks. Round 1's
// cells from one below that floor up to top are exactly the ones round 2
// reads; where round 2's top is one above round 1's, both the cell and its
// lower neighbour are still the zeros no round has written, so round 1's
// recurrence leaves it zero. A band round with no partner — the last one,
// followed only by certain tuples — needs only its absorbs: no later round
// reads its band.
//
// Certain tuples come at random, so a branch per tuple on p = 1 is hard
// to predict. Before each tuple test, one VCMPPD over the next four
// tuples finds the run of m ≤ 4 certain tuples ahead; while hi + m < k none
// of them absorbs, and their shifts are applied at once.
//
// Registers: SI cell 0, R8 the next tuple, R9 tuples left, R10 k, R11 the
// next tuple's logical floor lo = k − n + idx + 1, R12 off, R13 hi, BX
// k − 1 − off (the cell that feeds the absorbing bucket), X10/Y10 1.0, X11
// acc, X14/Y14 q1, X15/Y15 p1, X12/Y12 q2, X13/Y13 p2.
TEXT ·tailDPAVX2(SB), NOSPLIT, $0-64
	MOVQ   buf_base+0(FP), SI
	ADDQ   $64, SI
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
	VMOVQ  AX, X10
	VBROADCASTSD X10, Y10       // 1.0 in every lane
	VXORPD X11, X11, X11        // acc = 0

round:
	CMPQ      R9, $4
	JLT       tuple
	VCMPPD    $0, (R8), Y10, Y0
	VMOVMSKPD Y0, AX
	NOTL      AX
	BSFL      AX, AX              // m: certain tuples ahead, at most 4
	LEAQ      (R13)(AX*1), DX
	CMPQ      DX, R10
	JGE       tuple               // one of them may absorb
	ADDQ      AX, R12             // off += m
	SUBQ      AX, BX
	MOVQ      DX, R13             // hi += m
	ADDQ      AX, R11
	LEAQ      (R8)(AX*8), R8
	SUBQ      AX, R9

tuple:
	TESTQ    R9, R9
	JEQ      dpdone
	CMPQ     R13, R10
	JGE      hi1set
	INCQ     R13                // hi < k: hi++

hi1set:
	VBROADCASTSD (R8), Y15
	ADDQ         $8, R8
	DECQ         R9
	INCQ         R11
	VUCOMISD     X10, X15
	JNE          round1
	JPS          round1

	// p = 1 outside a pair: the shift off++, absorbing cell k−1−off.
	CMPQ   R13, R10
	JNE    shifted
	VADDSD (SI)(BX*8), X11, X11

shifted:
	INCQ R12
	DECQ BX
	CMPQ R12, R10
	JGE  dpdone                 // off ≥ k: all mass absorbed
	JMP  round

round1:
	VSUBPD Y15, Y10, Y14        // q1 = 1 − p1
	CMPQ   R13, R10
	JNE    seek
	VMULSD (SI)(BX*8), X15, X0
	VADDSD X0, X11, X11         // acc += d[k−1−off]·p1

seek:
	// Find round 2; certain tuples on the way absorb round 1's cells.
	CMPQ      R9, $4
	JLT       seektuple
	VCMPPD    $0, (R8), Y10, Y0
	VMOVMSKPD Y0, AX
	NOTL      AX
	BSFL      AX, AX              // m: certain tuples ahead, at most 4
	LEAQ      (R13)(AX*1), DX
	CMPQ      DX, R10
	JGE       seektuple           // one of them may absorb
	ADDQ      AX, R12             // off += m
	SUBQ      AX, BX
	MOVQ      DX, R13             // hi += m
	ADDQ      AX, R11
	LEAQ      (R8)(AX*8), R8
	SUBQ      AX, R9

seektuple:
	TESTQ    R9, R9
	JEQ      dpdone             // round 1 was the last band round
	CMPQ     R13, R10
	JGE      hi2set
	INCQ     R13

hi2set:
	VBROADCASTSD (R8), Y13
	ADDQ         $8, R8
	DECQ         R9
	INCQ         R11
	VUCOMISD     X10, X13
	JNE          round2
	JPS          round2
	CMPQ         R13, R10
	JNE          shifted2
	VMULSD       (SI)(BX*8), X14, X0
	VMULSD       -8(SI)(BX*8), X15, X1
	VADDSD       X1, X0, X0     // round 1's d′[k−1−off]
	VADDSD       X0, X11, X11

shifted2:
	INCQ R12
	DECQ BX
	CMPQ R12, R10
	JGE  dpdone
	JMP  seek

round2:
	VSUBPD Y13, Y10, Y12        // q2 = 1 − p2
	MOVQ   R13, DX
	SUBQ   R12, DX              // top = hi − off
	CMPQ   R13, R10
	JNE    band
	VMULSD (SI)(BX*8), X14, X0
	VMULSD -8(SI)(BX*8), X15, X1
	VADDSD X1, X0, X0
	VMULSD X13, X0, X0
	VADDSD X0, X11, X11         // acc += d′[k−1−off]·p2
	MOVQ   BX, DX               // top = k − 1 − off

band:
	// Round 2's floor is max(lo − off, 0); R11 is already one tuple on.
	LEAQ    -1(R11), CX
	SUBQ    R12, CX
	XORQ    AX, AX
	CMPQ    CX, AX
	CMOVQLT AX, CX
	NEGQ    CX
	LEAQ    1(DX)(CX*1), CX     // round-2 cells
	TESTQ   CX, CX
	JLE     round
	ADDQ    $3, CX
	ANDQ    $-4, CX             // whole blocks, widened into dead cells
	LEAQ    (SI)(DX*8), DI
	CALL    pairPass<>(SB)
	JMP     round

dpdone:
	VMOVSD X11, ret+56(FP)
	VZEROUPPER
	RET

// func leafPMFAVX2(buf, probs []float64, L, k int)
//
// The foldTuple chain of leafPMFGeneric (kernel.go) with two tuples per
// pass. Cell c lives at buf[8+c]: the caller zeroes buf, sets cell 0 to 1
// and guarantees 1 ≤ L ≤ len(probs), L ≤ k and len(buf) = L+9. Cell L
// absorbs when L = k. An odd first tuple is applied by hand — it leaves
// exactly 1 − p and p, what its round computes from 1 and zeros — and the
// rest go in pairs: both absorbs into cell L, in order, the second on round
// 1's value of cell L−1; then one pairPass over round 2's band [0, top],
// widened down into the guard cells. Where round 2's top is one above
// round 1's, that cell and its neighbour are still zero, as in tailDPAVX2.
//
// Registers: SI cell 0, R8 the next tuple, R9 tuples left, R10 L, R11 k,
// R13 hi, X10/Y10 1.0, X14/Y14 q1, X15/Y15 p1, X12/Y12 q2, X13/Y13 p2.
TEXT ·leafPMFAVX2(SB), NOSPLIT, $0-64
	MOVQ  buf_base+0(FP), SI
	ADDQ  $64, SI
	MOVQ  probs_base+24(FP), R8
	MOVQ  probs_len+32(FP), R9
	MOVQ  L+48(FP), R10
	MOVQ  k+56(FP), R11
	XORQ  R13, R13              // hi = 0
	MOVQ  $0x3FF0000000000000, AX
	VMOVQ AX, X10
	VBROADCASTSD X10, Y10       // 1.0 in every lane
	TESTQ $1, R9
	JEQ   pairs
	VMOVSD (R8), X0
	VSUBSD X0, X10, X1
	VMOVSD X1, (SI)             // cell 0 = 1 − p
	VMOVSD X0, 8(SI)            // cell 1 = p
	MOVQ   $1, R13
	ADDQ   $8, R8
	DECQ   R9

pairs:
	TESTQ   R9, R9
	JEQ     leafdone
	VBROADCASTSD (R8), Y15
	VBROADCASTSD 8(R8), Y13
	VSUBPD       Y15, Y10, Y14  // q1
	VSUBPD       Y13, Y10, Y12  // q2
	INCQ    R13
	CMPQ    R13, R10
	CMOVQGT R10, R13            // hi = min(hi+1, L)
	CMPQ    R10, R11
	JNE     grow1
	CMPQ    R13, R10
	JNE     grow1
	VMOVSD  -8(SI)(R10*8), X0
	VMULSD  X15, X0, X0
	VADDSD  (SI)(R10*8), X0, X0
	VMOVSD  X0, (SI)(R10*8)     // cell L += cell L−1 · p1

grow1:
	INCQ    R13
	CMPQ    R13, R10
	CMOVQGT R10, R13
	MOVQ    R13, DX             // top = hi
	CMPQ    R10, R11
	JNE     leafband
	CMPQ    R13, R10
	JNE     leafband
	VMOVSD  -8(SI)(R10*8), X0
	VMULSD  X14, X0, X0
	VMOVSD  -16(SI)(R10*8), X1
	VMULSD  X15, X1, X1
	VADDSD  X1, X0, X0          // round 1's cell L−1
	VMULSD  X13, X0, X0
	VADDSD  (SI)(R10*8), X0, X0
	VMOVSD  X0, (SI)(R10*8)     // cell L += d′[L−1] · p2
	LEAQ    -1(R10), DX         // top = L − 1

leafband:
	LEAQ         4(DX), CX
	ANDQ         $-4, CX        // cells 0…top, rounded up to whole blocks
	LEAQ         (SI)(DX*8), DI
	CALL         pairPass<>(SB)
	ADDQ         $16, R8
	SUBQ         $2, R9
	JMP          pairs

leafdone:
	VZEROUPPER
	RET
