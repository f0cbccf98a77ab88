//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 block kernels under TanhV and SigmoidV (vecmath.go): four
// float64 per YMM register, every lane running exactly the operation
// sequence of the Go element functions tanh1 and sigmoid1 — the same
// multiplies, adds, subtracts and the one divide, in the same order, as
// separate instructions. Nothing here is fused (a fused multiply-add
// would skip the product's rounding) and nothing is wider than YMM.
// The constants are vecmath.go's, written as the same decimal literals
// (the assembler and the compiler both round a literal to the nearest
// float64), one 32-byte row of four equal lanes each.

#define ROW(i, v) \
	DATA vm<>+(i*32+0)(SB)/8, v; \
	DATA vm<>+(i*32+8)(SB)/8, v; \
	DATA vm<>+(i*32+16)(SB)/8, v; \
	DATA vm<>+(i*32+24)(SB)/8, v

ROW(0, $0x7FFFFFFFFFFFFFFF) // every bit but the sign
ROW(1, $0x8000000000000000) // the sign bit
ROW(2, $708.0) // expFastCut
ROW(3, $1.44269504088896340736) // expLog2E
ROW(4, $0.5)
ROW(5, $6.93145751953125e-1) // expLn2Hi
ROW(6, $1.42860682030941723212e-6) // expLn2Lo
ROW(7, $1.26177193074810590878e-4) // expP0
ROW(8, $3.02994407707441961300e-2) // expP1
ROW(9, $9.99999999999999999910e-1) // expP2
ROW(10, $3.00198505138664455042e-6) // expQ0
ROW(11, $2.52448340349684104192e-3) // expQ1
ROW(12, $2.27265548208155028766e-1) // expQ2
ROW(13, $2.00000000000000000005e0) // expQ3
ROW(14, $1023) // the exponent bias, as an integer
ROW(15, $20.0) // tanhSatCut
ROW(16, $0.625)
ROW(17, $1.0)
ROW(18, $-9.64399179425052238628e-1) // tanhP0
ROW(19, $-9.92877231001918586564e1) // tanhP1
ROW(20, $-1.61468768441708447952e3) // tanhP2
ROW(21, $1.12811678491632931402e2) // tanhQ0
ROW(22, $2.23548839060100448583e3) // tanhQ1
ROW(23, $4.84406305325125486048e3) // tanhQ2
GLOBL vm<>(SB), RODATA|NOPTR, $768

#define ABSMASK vm<>+0(SB)
#define SIGNBIT vm<>+32(SB)
#define FASTCUT vm<>+64(SB)
#define LOG2E vm<>+96(SB)
#define HALF vm<>+128(SB)
#define LN2HI vm<>+160(SB)
#define LN2LO vm<>+192(SB)
#define EXPP0 vm<>+224(SB)
#define EXPP1 vm<>+256(SB)
#define EXPP2 vm<>+288(SB)
#define EXPQ0 vm<>+320(SB)
#define EXPQ1 vm<>+352(SB)
#define EXPQ2 vm<>+384(SB)
#define EXPQ3 vm<>+416(SB)
#define BIAS vm<>+448(SB)
#define SATCUT vm<>+480(SB)
#define SMALLCUT vm<>+512(SB)
#define ONE vm<>+544(SB)
#define TANHP0 vm<>+576(SB)
#define TANHP1 vm<>+608(SB)
#define TANHP2 vm<>+640(SB)
#define TANHQ0 vm<>+672(SB)
#define TANHQ1 vm<>+704(SB)
#define TANHQ2 vm<>+736(SB)

// EXPRAT is expRat: from y in Y0 (|y| ≤ 708) it leaves num = q+p in Y5,
// den = q−p in Y2 and scale = 2^k in Y3, and clobbers Y0, Y1, Y4.
//
//	k = floor(log2e·y + ½)
//	r = y − k·ln2hi;  r = r − k·ln2lo
//	z = r·r
//	p = r·((P0·z + P1)·z + P2)
//	q = ((Q0·z + Q1)·z + Q2)·z + Q3
//	2^k = (int64(k) + 1023) << 52, k converted by truncation (it is
//	      already integral and |k| ≤ 1022 fits the int32 the packed
//	      conversion produces)
#define EXPRAT \
	VMULPD      LOG2E, Y0, Y1; \
	VADDPD      HALF, Y1, Y1; \
	VROUNDPD    $9, Y1, Y1; \
	VMULPD      LN2HI, Y1, Y2; \
	VSUBPD      Y2, Y0, Y0; \
	VMULPD      LN2LO, Y1, Y2; \
	VSUBPD      Y2, Y0, Y0; \
	VCVTTPD2DQY Y1, X3; \
	VPMOVSXDQ   X3, Y3; \
	VPADDQ      BIAS, Y3, Y3; \
	VPSLLQ      $52, Y3, Y3; \
	VMULPD      Y0, Y0, Y4; \
	VMULPD      EXPP0, Y4, Y1; \
	VADDPD      EXPP1, Y1, Y1; \
	VMULPD      Y4, Y1, Y1; \
	VADDPD      EXPP2, Y1, Y1; \
	VMULPD      Y1, Y0, Y1; \
	VMULPD      EXPQ0, Y4, Y2; \
	VADDPD      EXPQ1, Y2, Y2; \
	VMULPD      Y4, Y2, Y2; \
	VADDPD      EXPQ2, Y2, Y2; \
	VMULPD      Y4, Y2, Y2; \
	VADDPD      EXPQ3, Y2, Y2; \
	VADDPD      Y1, Y2, Y5; \
	VSUBPD      Y1, Y2, Y2

// func sigmoidBlocks(dst, x *float64, blocks int) int
//
// dst[i] = sigmoid1(x[i]) for whole blocks of four, in order, until a
// block holds a lane the fast range does not cover (NaN or |x| > 708);
// returns the number of blocks finished. Per lane, as SigmoidV's Go
// loop: expRat(−|x|), sn = s·num, numerator den for x ≥ 0 and sn for
// x < 0 — a blend on x's sign bit, which at ±0 picks between equal
// bits — over den + sn.
TEXT ·sigmoidBlocks(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ blocks+16(FP), CX
	XORQ DX, DX

sigmoidLoop:
	CMPQ      DX, CX
	JGE       sigmoidDone
	VMOVUPD   (SI), Y6
	VANDPD    ABSMASK, Y6, Y0
	VCMPPD    $0x16, FASTCUT, Y0, Y1 // not |x| ≤ 708: beyond it, or NaN
	VMOVMSKPD Y1, AX
	TESTL     AX, AX
	JNZ       sigmoidDone
	VORPD     SIGNBIT, Y6, Y0        // y = −|x|
	EXPRAT
	VMULPD    Y5, Y3, Y5             // sn = s·num
	VBLENDVPD Y6, Y5, Y2, Y1         // x < 0 ? sn : den
	VADDPD    Y5, Y2, Y2             // den + sn
	VDIVPD    Y2, Y1, Y1
	VMOVUPD   Y1, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	INCQ      DX
	JMP       sigmoidLoop

sigmoidDone:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET

// TANHSMALL is tanh1's polynomial branch: from x in Y6 and z = x·x in
// Y8 it leaves x + ((x·z)·((P0·z + P1)·z + P2)) / (((z + Q0)·z + Q1)·z + Q2)
// in Y10, and clobbers Y11, Y12.
#define TANHSMALL \
	VMULPD TANHP0, Y8, Y10; \
	VADDPD TANHP1, Y10, Y10; \
	VMULPD Y8, Y10, Y10; \
	VADDPD TANHP2, Y10, Y10; \
	VADDPD TANHQ0, Y8, Y11; \
	VMULPD Y8, Y11, Y11; \
	VADDPD TANHQ1, Y11, Y11; \
	VMULPD Y8, Y11, Y11; \
	VADDPD TANHQ2, Y11, Y11; \
	VMULPD Y8, Y6, Y12; \
	VMULPD Y10, Y12, Y12; \
	VDIVPD Y11, Y12, Y12; \
	VADDPD Y12, Y6, Y10

// TANHMID is tanh1's exp branch: from x in Y6 and |x| in Y7 it leaves
// (1 − (2·den)/(s·num + den)) with x's sign bit OR-ed in (the value is
// ≥ 0.55, so that is negate-if-negative) in Y1, through expRat(2·|x|);
// 2·v is v + v, the same bits for every v. Clobbers Y0..Y5.
#define TANHMID \
	VADDPD  Y7, Y7, Y0; \
	EXPRAT; \
	VMULPD  Y5, Y3, Y5; \
	VADDPD  Y2, Y5, Y5; \
	VADDPD  Y2, Y2, Y2; \
	VDIVPD  Y5, Y2, Y2; \
	VMOVUPD ONE, Y1; \
	VSUBPD  Y2, Y1, Y1; \
	VANDPD  SIGNBIT, Y6, Y2; \
	VORPD   Y2, Y1, Y1

// func tanhBlocks(dst, x *float64, blocks int) int
//
// dst[i] = tanh1(x[i]) for whole blocks of four, in order, until a
// block holds a lane neither formula covers (NaN, |x| > 20, or
// x·x == 0, where tanh1 returns x itself); returns the number of blocks
// finished. A block whose lanes are all below 0.625, or all at or above
// it, evaluates one formula; a block with both evaluates both and takes
// each lane from its own — every lane is a pure function of its input,
// so the blend equals tanh1's branch.
TEXT ·tanhBlocks(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   blocks+16(FP), CX
	XORQ   DX, DX
	VXORPD Y13, Y13, Y13

tanhLoop:
	CMPQ      DX, CX
	JGE       tanhDone
	VMOVUPD   (SI), Y6
	VANDPD    ABSMASK, Y6, Y7
	VMULPD    Y6, Y6, Y8
	VCMPPD    $0x16, SATCUT, Y7, Y1 // not |x| ≤ 20: beyond it, or NaN
	VCMPPD    $0, Y13, Y8, Y2       // x·x == 0
	VORPD     Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	TESTL     AX, AX
	JNZ       tanhDone
	VCMPPD    $0x11, SMALLCUT, Y7, Y9 // |x| < 0.625
	VMOVMSKPD Y9, AX
	CMPL      AX, $15
	JEQ       tanhSmall
	TESTL     AX, AX
	JZ        tanhMid
	TANHSMALL
	TANHMID
	VBLENDVPD Y9, Y10, Y1, Y1
	JMP       tanhStore

tanhSmall:
	TANHSMALL
	VMOVAPD Y10, Y1
	JMP     tanhStore

tanhMid:
	TANHMID

tanhStore:
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	INCQ    DX
	JMP     tanhLoop

tanhDone:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET
