package f64

// useAVX2 selects the vector row-update kernel under GemmSW, GemmTN and
// GemvT. It is read from the CPU once, here; nothing configures it
// (the package's tests flip it to run both paths).
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
