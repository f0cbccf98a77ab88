//go:build !amd64 || purego

package f64

// useAVX2 is never set off amd64 or under the purego build tag: the Go
// loops are the only path.
var useAVX2 = false

func rowUpdate4(c, a *float64, astride int, b *float64, ldb, w, kb int) {
	panic("f64: no vector kernel on this GOARCH")
}

func colSumsSeq(dst, a *float64, lda int, x *float64, w, k int) {
	panic("f64: no vector kernel on this GOARCH")
}

func winSumMax(dst, bias, table *float64, ids *int, positions, width, rows, k, w, span int) {
	panic("f64: no vector kernel on this GOARCH")
}

func sigmoidBlocks(dst, x *float64, blocks int) int {
	panic("f64: no vector kernel on this GOARCH")
}

func tanhBlocks(dst, x *float64, blocks int) int {
	panic("f64: no vector kernel on this GOARCH")
}
