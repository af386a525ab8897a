#include "textflag.h"

// The lockstep walker of CountCovers (condsample.go, DESIGN §13): eight
// conditioned worlds, as two groups of four 64-bit lanes, walk the
// positions i = 0…L−1 together, L = len(masks): the positions whose mask
// can change a verdict, which dnf puts first and Reset tables. The
// world's other draws are the caller's to skip. Per lane and step it draws
// exactly what nextFloatBits draws:
//
//   - splitmix64: state += golden, then the finalizer, its two 64-bit
//     multiplies each built from three VPMULUDQ (lo·lo + (hi·lo + lo·hi)<<32);
//   - float64(int64(z>>1)) with no 64-bit conversion instruction: with
//     hi = z>>33 and lo = (z>>1) mod 2³², the doubles 2⁸⁴ + hi·2³² and
//     2⁵² + lo are assembled by OR-ing the integers into their mantissas,
//     (2⁸⁴ + hi·2³²) − (2⁸⁴ + 2⁵²) is exact, and the one VADDPD of 2⁵² + lo
//     rounds the exact sum hi·2³² + lo once, to nearest even, as CVTSI2SDQ
//     does;
//   - ×2⁻⁶³, exact.
//
// The draw is compared with the lane's table cell, gathered at its cursor
// (VCMPPD, u < cell); a success while successes are owed (the cursor above
// its column's row 0) moves the cursor one row down, and the position's
// mask word, broadcast, is ORed into every succeeding lane's union. The
// loop ends when every lane covers want or after position L−1.
//
// Every instruction on a vector register is VEX-encoded: a legacy-SSE one
// (MOVQ r64, X) while the upper YMM halves are dirty costs a state
// transition, more than a short walk's whole loop.

// Per-lane constants, four copies each.
DATA walkc<>+0(SB)/8, $0x9E3779B97F4A7C15  // golden
DATA walkc<>+8(SB)/8, $0x9E3779B97F4A7C15
DATA walkc<>+16(SB)/8, $0x9E3779B97F4A7C15
DATA walkc<>+24(SB)/8, $0x9E3779B97F4A7C15
DATA walkc<>+32(SB)/8, $0xBF58476D1CE4E5B9 // first finalizer multiplier
DATA walkc<>+40(SB)/8, $0xBF58476D1CE4E5B9
DATA walkc<>+48(SB)/8, $0xBF58476D1CE4E5B9
DATA walkc<>+56(SB)/8, $0xBF58476D1CE4E5B9
DATA walkc<>+64(SB)/8, $0xBF58476D         // its high half
DATA walkc<>+72(SB)/8, $0xBF58476D
DATA walkc<>+80(SB)/8, $0xBF58476D
DATA walkc<>+88(SB)/8, $0xBF58476D
DATA walkc<>+96(SB)/8, $0x94D049BB133111EB // second finalizer multiplier
DATA walkc<>+104(SB)/8, $0x94D049BB133111EB
DATA walkc<>+112(SB)/8, $0x94D049BB133111EB
DATA walkc<>+120(SB)/8, $0x94D049BB133111EB
DATA walkc<>+128(SB)/8, $0x94D049BB        // its high half
DATA walkc<>+136(SB)/8, $0x94D049BB
DATA walkc<>+144(SB)/8, $0x94D049BB
DATA walkc<>+152(SB)/8, $0x94D049BB
DATA walkc<>+160(SB)/8, $0x4530000000000000 // 2⁸⁴
DATA walkc<>+168(SB)/8, $0x4530000000000000
DATA walkc<>+176(SB)/8, $0x4530000000000000
DATA walkc<>+184(SB)/8, $0x4530000000000000
DATA walkc<>+192(SB)/8, $0x4330000000000000 // 2⁵²
DATA walkc<>+200(SB)/8, $0x4330000000000000
DATA walkc<>+208(SB)/8, $0x4330000000000000
DATA walkc<>+216(SB)/8, $0x4330000000000000
DATA walkc<>+224(SB)/8, $0x4530000000100000 // 2⁸⁴ + 2⁵²
DATA walkc<>+232(SB)/8, $0x4530000000100000
DATA walkc<>+240(SB)/8, $0x4530000000100000
DATA walkc<>+248(SB)/8, $0x4530000000100000
DATA walkc<>+256(SB)/8, $0x3C00000000000000 // 2⁻⁶³
DATA walkc<>+264(SB)/8, $0x3C00000000000000
DATA walkc<>+272(SB)/8, $0x3C00000000000000
DATA walkc<>+280(SB)/8, $0x3C00000000000000
GLOBL walkc<>(SB), RODATA|NOPTR, $288

#define GOLDEN walkc<>+0(SB)
#define MUL1 walkc<>+32(SB)
#define MUL1HI walkc<>+64(SB)
#define MUL2 walkc<>+96(SB)
#define MUL2HI walkc<>+128(SB)
#define EXP84 walkc<>+160(SB)
#define EXP52 walkc<>+192(SB)
#define EXP8452 walkc<>+224(SB)
#define TWOM63 walkc<>+256(SB)

// MUL64(z, t, u, m, mhi) sets z = z·m mod 2⁶⁴ in every lane, with t and u
// as scratch; mhi is m's high half.
#define MUL64(z, t, u, m, mhi) \
	VPSRLQ   $32, z, t   \
	VPMULUDQ m, t, t     \
	VPMULUDQ mhi, z, u   \
	VPADDQ   u, t, t     \
	VPSLLQ   $32, t, t   \
	VPMULUDQ m, z, z     \
	VPADDQ   t, z, z

// DRAW(st, u, t, v) advances the lanes' states st and sets u to their
// Float64 draws, with t and v as scratch.
#define DRAW(st, u, t, v) \
	VPADDQ    GOLDEN, st, st     \
	VPSRLQ    $30, st, t         \
	VPXOR     st, t, u           \
	MUL64(u, t, v, MUL1, MUL1HI) \
	VPSRLQ    $27, u, t          \
	VPXOR     t, u, u            \
	MUL64(u, t, v, MUL2, MUL2HI) \
	VPSRLQ    $31, u, t          \
	VPXOR     t, u, u            \
	VPSRLQ    $33, u, t          \
	VPOR      EXP84, t, t        \
	VPSRLQ    $1, u, u           \
	VPBLENDD  $0xAA, EXP52, u, u \
	VSUBPD    EXP8452, t, t      \
	VADDPD    u, t, u            \
	VMULPD    TWOM63, u, u

// func walk8AVX2(tab []float64, masks []uint64, stride int, want uint64, st *[lanes]uint64) int
//
// Y0/Y1 states, Y2/Y3 table cursors i·stride + r, Y4/Y5 mask unions,
// Y6 the current column's base i·stride (a cursor above it still owes a
// success), Y15 the stride, want broadcast in the frame.
TEXT ·walk8AVX2(SB), NOSPLIT, $32-80
	MOVQ         tab_base+0(FP), AX
	MOVQ         masks_base+24(FP), SI
	MOVQ         masks_len+32(FP), CX
	MOVQ         st+64(FP), DI
	VMOVDQU      (DI), Y0
	VMOVDQU      32(DI), Y1
	VPBROADCASTQ stride+48(FP), Y15
	VPCMPEQQ     Y2, Y2, Y2
	VPADDQ       Y15, Y2, Y2          // every world starts at cell (0, k)
	VMOVDQA      Y2, Y3
	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	VPXOR        Y6, Y6, Y6
	VPBROADCASTQ want+56(FP), Y7
	VMOVDQU      Y7, wantv-32(SP)
	TESTQ        CX, CX
	JEQ          count

step:
	// Gather the current cells first: they depend only on the cursors,
	// so the loads overlap the draws.
	VPCMPEQQ   Y11, Y11, Y11
	VGATHERQPD Y11, (AX)(Y2*8), Y7
	VPCMPEQQ   Y14, Y14, Y14
	VGATHERQPD Y14, (AX)(Y3*8), Y8
	DRAW(Y0, Y9, Y10, Y11)
	DRAW(Y1, Y12, Y13, Y14)
	VCMPPD     $0x11, Y7, Y9, Y9      // s = u < cell (LT_OQ)
	VCMPPD     $0x11, Y8, Y12, Y12
	VPCMPGTQ   Y6, Y2, Y10            // r > 0
	VPCMPGTQ   Y6, Y3, Y13
	VPAND      Y9, Y10, Y10           // d = s ∧ r > 0, as 0 or −1
	VPAND      Y12, Y13, Y13
	VPADDQ     Y15, Y2, Y2
	VPADDQ     Y15, Y3, Y3
	VPADDQ     Y10, Y2, Y2
	VPADDQ     Y13, Y3, Y3
	VPADDQ     Y15, Y6, Y6
	VPBROADCASTQ (SI), Y10
	VPAND      Y10, Y9, Y9
	VPAND      Y10, Y12, Y12
	VPOR       Y9, Y4, Y4
	VPOR       Y12, Y5, Y5
	VPCMPEQQ   wantv-32(SP), Y4, Y9
	VPCMPEQQ   wantv-32(SP), Y5, Y12
	VPAND      Y9, Y12, Y9
	VMOVMSKPD  Y9, DX
	CMPL       DX, $15
	JEQ        count                  // every world covers want
	ADDQ       $8, SI
	DECQ       CX
	JNZ        step

count:
	VPCMPEQQ  wantv-32(SP), Y4, Y9
	VPCMPEQQ  wantv-32(SP), Y5, Y12
	VMOVMSKPD Y9, AX
	VMOVMSKPD Y12, BX
	SHLQ      $4, BX
	ORQ       BX, AX
	MOVQ      AX, ret+72(FP)
	VZEROUPPER
	RET
