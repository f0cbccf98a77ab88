//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5), the OS has
// enabled XSAVE (leaf 1, ECX bit 27) with AVX (bit 28), and XCR0 says
// the kernel saves both the XMM and the YMM halves (bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// TERMS4 computes into acc the row update of one 4-column vector for
// one block of four shared-dimension terms, in exactly the Go loop's
// order: t = ((a0·b0 + a1·b1) + a2·b2) + a3·b3, then acc = acc + t.
// Y4..Y7 hold a0..a3 broadcast; BX points at b0's first column of the
// tile, R9 is ldb and R12 3·ldb in bytes. Multiplies and adds stay
// separate instructions: a fused multiply-add would skip the product's
// rounding and break bit-identity with the Go reference.
#define TERMS4(off, t, u, acc) \
	VMULPD off(BX), Y4, t; \
	VMULPD off(BX)(R9*1), Y5, u; \
	VADDPD u, t, t; \
	VMULPD off(BX)(R9*2), Y6, u; \
	VADDPD u, t, t; \
	VMULPD off(BX)(R12*1), Y7, u; \
	VADDPD u, t, t; \
	VADDPD t, acc, acc

// BCAST4 loads the block's four A terms, astride (R8, 3·astride in
// R11, bytes) apart, into every lane of Y4..Y7.
#define BCAST4 \
	VBROADCASTSD (AX), Y4; \
	VBROADCASTSD (AX)(R8*1), Y5; \
	VBROADCASTSD (AX)(R8*2), Y6; \
	VBROADCASTSD (AX)(R11*1), Y7

// func rowUpdate4(c, a *float64, astride int, b *float64, ldb, w, kb int)
//
// c[j] += ((a[0]·b[j] + a[s]·b[ldb+j]) + a[2s]·b[2ldb+j]) + a[3s]·b[3ldb+j]
// for j < w (a multiple of 4), repeated for kb ≥ 1 consecutive blocks of
// four terms (a advances 4·astride, b 4·ldb per block). A tile of 16
// columns, then of 4, stays in YMM registers across all kb blocks, so
// every c element is loaded and stored once.
TEXT ·rowUpdate4(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ astride+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R9
	MOVQ w+40(FP), CX
	MOVQ kb+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R11
	LEAQ (R9)(R9*2), R12

tile16:
	CMPQ CX, $16
	JLT  tile4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, R13
loop16:
	BCAST4
	TERMS4(0, Y8, Y9, Y0)
	TERMS4(32, Y10, Y11, Y1)
	TERMS4(64, Y12, Y13, Y2)
	TERMS4(96, Y14, Y15, Y3)
	LEAQ (AX)(R8*4), AX
	LEAQ (BX)(R9*4), BX
	DECQ R13
	JNZ  loop16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  tile16

tile4:
	CMPQ CX, $4
	JLT  done
	VMOVUPD (DI), Y0
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R10, R13
loop4:
	BCAST4
	TERMS4(0, Y8, Y9, Y0)
	LEAQ (AX)(R8*4), AX
	LEAQ (BX)(R9*4), BX
	DECQ R13
	JNZ  loop4
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  tile4

done:
	VZEROUPPER
	RET

// COLTERM adds one row's term to one 4-column accumulator: acc = acc +
// a[r, cols]·x[r], the product rounded before the add as in the Go loop
// (no fused multiply-add). AX points at row r of the tile, Y15 holds
// x[r] broadcast; Y14 is the product, renamed per use by the CPU.
#define COLTERM(off, acc) \
	VMULPD off(AX), Y15, Y14; \
	VADDPD Y14, acc, acc

// COLROWS starts a tile's pass over all k rows; COLNEXT steps to the
// next row and loops. AX walks a (R8 = lda in bytes), BX walks x.
#define COLROWS \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ R10, R13

#define COLNEXT(loop) \
	ADDQ R8, AX; \
	ADDQ $8, BX; \
	DECQ R13; \
	JNZ  loop

// func colSumsSeq(dst, a *float64, lda int, x *float64, w, k int)
//
// dst[c] = ((0 + a[c]·x[0]) + a[lda+c]·x[1]) + … + a[(k−1)·lda+c]·x[k−1]
// for c < w (a multiple of 4) and k ≥ 1: column sums of a k-row matrix
// weighted by x, every column summed on its own in increasing row order
// from +0 — the columns only run side by side. A tile stays in YMM
// registers across all k rows and each dst element is stored once:
// tiles of 32 columns (eight accumulators, so each one's add latency
// hides behind the other seven), then what is left below 32 as at most
// one tile each of 16, 8 and 4.
TEXT ·colSumsSeq(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ x+24(FP), DX
	MOVQ w+32(FP), CX
	MOVQ k+40(FP), R10
	SHLQ $3, R8

tile32:
	CMPQ CX, $32
	JLT  tile16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	COLROWS
loop32:
	VBROADCASTSD (BX), Y15
	COLTERM(0, Y0)
	COLTERM(32, Y1)
	COLTERM(64, Y2)
	COLTERM(96, Y3)
	COLTERM(128, Y4)
	COLTERM(160, Y5)
	COLTERM(192, Y6)
	COLTERM(224, Y7)
	COLNEXT(loop32)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  tile32

tile16:
	CMPQ CX, $16
	JLT  tile8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	COLROWS
loop16:
	VBROADCASTSD (BX), Y15
	COLTERM(0, Y0)
	COLTERM(32, Y1)
	COLTERM(64, Y2)
	COLTERM(96, Y3)
	COLNEXT(loop16)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX

tile8:
	CMPQ CX, $8
	JLT  tile4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	COLROWS
loop8:
	VBROADCASTSD (BX), Y15
	COLTERM(0, Y0)
	COLTERM(32, Y1)
	COLNEXT(loop8)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $8, CX

tile4:
	CMPQ CX, $4
	JLT  done
	VXORPD Y0, Y0, Y0
	COLROWS
loop4:
	VBROADCASTSD (BX), Y15
	COLTERM(0, Y0)
	COLNEXT(loop4)
	VMOVUPD Y0, (DI)

done:
	VZEROUPPER
	RET

// WINTOKEN starts one (window, offset) step of winSumMax: AX = this
// tile's columns of the first table row of ids[p+j] at offset j, i.e.
// table + ((ids[p+j]·span + j)·rows·k + tile)·8. R8 points at ids[p],
// R10 is j, R13 span, R11 rows·k·8, DX table + tile.
#define WINTOKEN \
	MOVQ  (R8)(R10*8), AX; \
	IMULQ R13, AX; \
	ADDQ  R10, AX; \
	IMULQ R11, AX; \
	ADDQ  DX, AX

// func winSumMax(dst, bias, table *float64, ids *int, positions, width, rows, k, w, span int)
//
// dst[c] = max over the positions ≥ 1 windows p, by strict > from +0 in
// increasing p, of bias[c] + Σ table rows of the window: for j < width
// (≥ 1) and b < rows (≥ 1) in increasing (j, b), row
// (ids[p+j]·span + j)·rows + b of a table of k-wide rows — for c < w (a
// multiple of 4, ≤ k). Columns only run side by side: a tile's running
// sums and its running maxima both stay in YMM registers down all the
// positions (32 columns: eight of each; then 4: one of each), the sums
// reloaded from bias per window, one VADDPD per table row — separate adds
// in the Go loop's order — and one VMAXPD per window whose first source
// is the sum and second the running maximum: on a tie, on zeros of
// either sign and on a NaN sum it returns the second, which is the Go
// loop's `if s > best`. Each dst element is stored once. The twelve
// general registers below R14 hold the pointers, strides and counters;
// rows and width (loop bounds) and, per tile, ids and positions are
// re-read from the frame.
TEXT ·winSumMax(SB), NOSPLIT, $0-80
	MOVQ  dst+0(FP), DI
	MOVQ  bias+8(FP), SI
	MOVQ  table+16(FP), DX
	MOVQ  rows+48(FP), R11
	MOVQ  k+56(FP), R12
	MOVQ  w+64(FP), CX
	MOVQ  span+72(FP), R13
	SHLQ  $3, R12
	IMULQ R12, R11

tile32:
	CMPQ   CX, $32
	JLT    tile4
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ   ids+24(FP), R8
	MOVQ   positions+32(FP), R9
pos32:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD 128(SI), Y4
	VMOVUPD 160(SI), Y5
	VMOVUPD 192(SI), Y6
	VMOVUPD 224(SI), Y7
	XORQ    R10, R10
tok32:
	WINTOKEN
	MOVQ rows+48(FP), BX
row32:
	VADDPD (AX), Y0, Y0
	VADDPD 32(AX), Y1, Y1
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3
	VADDPD 128(AX), Y4, Y4
	VADDPD 160(AX), Y5, Y5
	VADDPD 192(AX), Y6, Y6
	VADDPD 224(AX), Y7, Y7
	ADDQ   R12, AX
	DECQ   BX
	JNZ    row32
	INCQ   R10
	CMPQ   R10, width+40(FP)
	JLT    tok32
	VMAXPD Y8, Y0, Y8
	VMAXPD Y9, Y1, Y9
	VMAXPD Y10, Y2, Y10
	VMAXPD Y11, Y3, Y11
	VMAXPD Y12, Y4, Y12
	VMAXPD Y13, Y5, Y13
	VMAXPD Y14, Y6, Y14
	VMAXPD Y15, Y7, Y15
	ADDQ   $8, R8
	DECQ   R9
	JNZ    pos32
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	VMOVUPD Y12, 128(DI)
	VMOVUPD Y13, 160(DI)
	VMOVUPD Y14, 192(DI)
	VMOVUPD Y15, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     tile32

tile4:
	CMPQ   CX, $4
	JLT    done
	VXORPD Y8, Y8, Y8
	MOVQ   ids+24(FP), R8
	MOVQ   positions+32(FP), R9
pos4:
	VMOVUPD (SI), Y0
	XORQ    R10, R10
tok4:
	WINTOKEN
	MOVQ rows+48(FP), BX
row4:
	VADDPD (AX), Y0, Y0
	ADDQ   R12, AX
	DECQ   BX
	JNZ    row4
	INCQ   R10
	CMPQ   R10, width+40(FP)
	JLT    tok4
	VMAXPD Y8, Y0, Y8
	ADDQ   $8, R8
	DECQ   R9
	JNZ    pos4
	VMOVUPD Y8, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     tile4

done:
	VZEROUPPER
	RET
