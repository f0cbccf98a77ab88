//go:build amd64 && !purego

package f64

// useAVX2 selects the vector kernels: the row update under GemmSW,
// GemmTN and GemvT, the column sums under GemvTSeq, the table sums
// under WindowSumMax, and the block kernels under TanhV and SigmoidV.
// It is read from the CPU once, here; nothing configures it (the
// package's tests flip it to run both paths).
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// rowUpdate4 is the AVX2 kernel in gemm_amd64.s: for j < w (a multiple
// of 4) and each of kb ≥ 1 consecutive blocks of four terms,
//
//	c[j] += ((a[0]·b[j] + a[s]·b[ldb+j]) + a[2s]·b[2ldb+j]) + a[3s]·b[3ldb+j]
//
// with s = astride, a advancing 4·astride and b 4·ldb elements per
// block. It checks nothing: the caller proves every address in range.
//
//go:noescape
func rowUpdate4(c, a *float64, astride int, b *float64, ldb, w, kb int)

// sigmoidBlocks and tanhBlocks are the AVX2 kernels in vecmath_amd64.s:
// dst[i] = sigmoid1(x[i]) (tanh1(x[i])) over whole blocks of four
// elements, in order, stopping before the first block that holds a lane
// outside the branch-free formulas — NaN or |x| > 708 for the logistic;
// NaN, |x| > 20 or x·x == 0 for tanh. They return the number of blocks
// finished and check nothing else: the caller proves 4·blocks elements
// of dst and x in range.
//
//go:noescape
func sigmoidBlocks(dst, x *float64, blocks int) int

//go:noescape
func tanhBlocks(dst, x *float64, blocks int) int

// colSumsSeq is the AVX2 kernel in gemm_amd64.s under GemvTSeq: for
// c < w (a multiple of 4) and k ≥ 1 rows lda elements apart,
//
//	dst[c] = ((0 + a[c]·x[0]) + a[lda+c]·x[1]) + … + a[(k−1)·lda+c]·x[k−1]
//
// each column summed on its own, in increasing row order from +0, with
// separate multiplies and adds. It checks nothing: the caller proves
// every address in range.
//
//go:noescape
func colSumsSeq(dst, a *float64, lda int, x *float64, w, k int)

// winSumMax is the AVX2 kernel in gemm_amd64.s under WindowSumMax: for
// c < w (a multiple of 4, ≤ k), over positions ≥ 1 window starts p,
//
//	s = bias[c]; s += table[((ids[p+j]·span + j)·rows + b)·k + c]
//
// in increasing (j, b), j < width, b < rows (both ≥ 1), then dst[c] =
// the first maximum of +0 and the windows' s by strict >, in increasing
// p. Separate adds, columns only. It checks nothing: the caller proves
// every id, and with it every address, in range.
//
//go:noescape
func winSumMax(dst, bias, table *float64, ids *int, positions, width, rows, k, w, span int)
