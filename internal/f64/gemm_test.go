package f64

import (
	"math"
	"math/rand"
	"testing"
)

// setAVX2 forces the dispatch under GemmSW/GemmTN/GemvT/GemvTSeq/
// WindowSumMax and under TanhV/SigmoidV and returns the call that
// restores it. Tests in this package run sequentially, so flipping the
// package bool is safe.
func setAVX2(on bool) (restore func()) {
	old := useAVX2
	useAVX2 = on
	return func() { useAVX2 = old }
}

// bothPaths runs fn with the vector kernel switched off ("go") and,
// where this CPU has it, switched on ("avx2").
func bothPaths(t *testing.T, fn func(t *testing.T)) {
	t.Run("go", func(t *testing.T) {
		defer setAVX2(false)()
		fn(t)
	})
	if useAVX2 {
		t.Run("avx2", fn)
	}
}

// wildVec draws values that stress every rounding the kernels
// perform: ordinary magnitudes, exact zeros (the zero-skip tail),
// subnormals, numbers whose products overflow or underflow, and ±Inf
// (so Inf·0 and Inf−Inf make NaNs mid-chain).
func wildVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch c := rng.Intn(400); {
		case c < 300:
			v[i] = rng.Float64()*2 - 1
		case c < 340:
			v[i] = 0
		case c < 355:
			v[i] = float64(rng.Intn(9)-4) * 5e-324
		case c < 370:
			v[i] = (rng.Float64()*2 - 1) * 1e-300
		case c < 380:
			v[i] = (rng.Float64()*2 - 1) * 1e300
		case c < 398:
			v[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(200)-100)
		default: // rare, or every long chain would end Inf or NaN
			v[i] = math.Inf(rng.Intn(2)*2 - 1)
		}
	}
	return v
}

// sameBits reports whether got and want agree element for element on
// math.Float64bits, a NaN matching any NaN (the hardware picks which
// operand's payload survives; nothing downstream reads it).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// gemvTRef is GemvT's documented order written out on its own, so the
// differential test does not lean on GemvT being built from GemmSW.
func gemvTRef(dst, a, x []float64) {
	n, m := len(dst), len(x)
	for j := range dst {
		dst[j] = 0
	}
	r := 0
	for ; r <= m-4; r += 4 {
		for j := range dst {
			dst[j] += x[r]*a[r*n+j] + x[r+1]*a[(r+1)*n+j] + x[r+2]*a[(r+2)*n+j] + x[r+3]*a[(r+3)*n+j]
		}
	}
	for ; r < m; r++ {
		if x[r] != 0 {
			for j := range dst {
				dst[j] += x[r] * a[r*n+j]
			}
		}
	}
}

// gemvTSeqRef is GemvTSeq's definition taken literally: GemvN over a
// transposed copy of the k×w matrix.
func gemvTSeqRef(dst, a, x []float64) {
	at := make([]float64, len(a))
	Transpose(at, a, len(x), len(dst))
	GemvN(dst, at, x)
}

// windowSumMaxRef is WindowSumMax's definition one element at a time:
// each column on its own, every window's chain from the bias in (j, b)
// order, the maximum by strict > from +0 in position order.
func windowSumMaxRef(dst, bias, table []float64, ids []int, k, rows, width, span int) {
	for c := 0; c < k; c++ {
		best := 0.0
		for p := 0; p+width <= len(ids); p++ {
			s := bias[c]
			for j := 0; j < width; j++ {
				for b := 0; b < rows; b++ {
					s += table[((ids[p+j]*span+j)*rows+b)*k+c]
				}
			}
			if s > best {
				best = s
			}
		}
		dst[c] = best
	}
}

// salt overwrites about one element in sixteen of v with the values
// wildVec does not draw — NaN and −0 — and with ±Inf, which it draws too
// rarely for a 40-window maximum to meet them in every column.
func salt(rng *rand.Rand, v []float64) {
	special := [...]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for n := len(v) / 16; n > 0; n-- {
		v[rng.Intn(len(v))] = special[rng.Intn(len(special))]
	}
}

// diffGemmKernels runs GemmSW, GemmTN, GemvT, GemvTSeq and WindowSumMax
// at one shape through the dispatching entry points and through the Go
// references on equal copies of the operands and requires identical
// bits everywhere — including the columns past w and the stride slack,
// which neither side may touch. sc, sa, sb widen ldc, lda, ldb past the
// minimum.
func diffGemmKernels(t *testing.T, rng *rand.Rand, m, w, k, sc, sa, sb int) {
	t.Helper()
	ldc, lda, ldb := w+sc, k+sa, w+sb
	a := wildVec(rng, m*lda+1)
	b := wildVec(rng, k*ldb+1)
	c0 := wildVec(rng, m*ldc+1)
	got := append([]float64(nil), c0...)
	want := append([]float64(nil), c0...)
	GemmSW(got, ldc, a, lda, b, ldb, m, w, k)
	gemmSWGo(want, ldc, a, lda, b, ldb, m, w, k)
	sameBits(t, "GemmSW", got, want)
	for i, v := range c0 {
		if inside := i < m*ldc && i%ldc < w; !inside && math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("GemmSW m=%d w=%d k=%d ldc=%d: wrote element %d outside the w columns", m, w, k, ldc, i)
		}
	}

	at := wildVec(rng, k*m+1)
	bt := wildVec(rng, k*w+1)
	ct := wildVec(rng, m*w+1)
	got = append(got[:0], ct...)
	want = append(want[:0], ct...)
	GemmTN(got, at, bt, m, w, k)
	gemmTNGo(want, at, bt, m, w, k)
	sameBits(t, "GemmTN", got, want)

	x := wildVec(rng, k)
	got = append(got[:0], wildVec(rng, w+1)...) // stale contents, one guard element
	want = append(want[:0], got...)
	GemvT(got[:w], bt[:k*w], x)
	gemvTRef(want[:w], bt[:k*w], x)
	sameBits(t, "GemvT", got, want)

	// The column-sum kernel against Transpose+GemvN, and against its own
	// Go path (which the comparison above reaches only without AVX2).
	got = append(got[:0], wildVec(rng, w+1)...)
	want = append(want[:0], got...)
	goPath := append([]float64(nil), got...)
	GemvTSeq(got[:w], bt[:k*w], x)
	gemvTSeqRef(want[:w], bt[:k*w], x)
	sameBits(t, "GemvTSeq", got, want)
	func() {
		defer setAVX2(false)()
		GemvTSeq(goPath[:w], bt[:k*w], x)
	}()
	sameBits(t, "GemvTSeq go path", goPath, want)

	// The table kernel on w columns against the per-element loop, and
	// against its own Go path. The rest of its shape is drawn here: 1…4
	// rows per offset, a span of 1…5 offsets of which the window takes
	// 0 (the bias alone) … all (fewer: the truncated window), 1…40
	// positions, ids from a vocabulary small enough to repeat. Half the
	// shapes are salted: a NaN sum must never win nor poison a later
	// maximum, a −0 one never replace +0.
	rows, span := 1+rng.Intn(4), 1+rng.Intn(5)
	width, vocab := rng.Intn(span+1), 1+rng.Intn(6)
	ids := make([]int, width+rng.Intn(40))
	for i := range ids {
		ids[i] = rng.Intn(vocab)
	}
	table, bias := wildVec(rng, vocab*span*rows*w), wildVec(rng, w)
	if rng.Intn(2) == 0 {
		salt(rng, table)
		salt(rng, bias)
	}
	got = append(got[:0], wildVec(rng, w+1)...)
	want = append(want[:0], got...)
	goPath = append(goPath[:0], got...)
	WindowSumMax(got, bias, table, ids, w, rows, width, span)
	windowSumMaxRef(want, bias, table, ids, w, rows, width, span)
	sameBits(t, "WindowSumMax", got, want)
	func() {
		defer setAVX2(false)()
		WindowSumMax(goPath, bias, table, ids, w, rows, width, span)
	}()
	sameBits(t, "WindowSumMax go path", goPath, want)
}

// TestGemmKernelsMatchReference is the seeded, tier-1 half of
// FuzzGemmKernels: every w mod 32 (the widest tile of the column-sum
// and table kernels; hence every w mod 16 and w mod 4) and k mod 4
// residue on both sides of the tile sizes, then random shapes up to 140.
func TestGemmKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for w := 0; w <= 69; w++ {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 33} {
			diffGemmKernels(t, rng, 1+w%3, w, k, w%3, k%2, (w+k)%5)
		}
	}
	for iter := 0; iter < 300; iter++ {
		diffGemmKernels(t, rng, rng.Intn(141), rng.Intn(141), rng.Intn(141), rng.Intn(4), rng.Intn(4), rng.Intn(4))
	}
}

func FuzzGemmKernels(f *testing.F) {
	f.Add(int64(1), uint8(128), uint8(16), uint8(32), uint8(0))
	f.Add(int64(2), uint8(1), uint8(128), uint8(32), uint8(0))
	f.Add(int64(3), uint8(7), uint8(21), uint8(6), uint8(0x1b))
	f.Add(int64(4), uint8(3), uint8(3), uint8(140), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, m, w, k, slack uint8) {
		rng := rand.New(rand.NewSource(seed))
		diffGemmKernels(t, rng, int(m)%141, int(w)%141, int(k)%141, int(slack)&3, int(slack>>2)&3, int(slack>>4)&3)
	})
}

// mustPanic runs fn and reports an error unless it panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// TestGemmShortOperandPanics: an operand one element short of what the
// shape needs must panic on both paths, never read or write past it.
func TestGemmShortOperandPanics(t *testing.T) { bothPaths(t, testGemmShortOperandPanics) }

func testGemmShortOperandPanics(t *testing.T) {
	const m, w, k = 3, 20, 8
	ones := func(n int) []float64 {
		v := make([]float64, n) // cap == len: nothing to spill into
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for _, short := range []struct {
		name    string
		c, a, b int
	}{{"c", 1, 0, 0}, {"a", 0, 1, 0}, {"b", 0, 0, 1}} {
		mustPanic(t, "GemmSW short "+short.name, func() {
			GemmSW(ones(m*w-short.c), w, ones(m*k-short.a), k, ones(k*w-short.b), w, m, w, k)
		})
		mustPanic(t, "GemmTN short "+short.name, func() {
			GemmTN(ones(m*w-short.c), ones(k*m-short.a), ones(k*w-short.b), m, w, k)
		})
	}
	mustPanic(t, "GemvT short a", func() { GemvT(ones(w), ones(k*w-1), ones(k)) })
	// GemvTSeq reads its shape off len(dst) and len(x), so a is the only
	// operand that can be short of it — whichever path its last element
	// belongs to (w = 20: the kernel's; w = 23, 3: a leftover column's).
	// A dst one element short is the next narrower product: it must
	// leave the element behind it alone.
	for _, w := range []int{w, w + 3, 3} {
		mustPanic(t, "GemvTSeq short a", func() { GemvTSeq(ones(w), ones(k*w-1), ones(k)) })
	}
	dst := ones(w)
	GemvTSeq(dst[:w-1], ones(k*w), ones(k))
	if dst[w-2] != k || dst[w-1] != 1 {
		t.Errorf("GemvTSeq into dst[:w-1]: last two elements %v, %v; want %d, 1", dst[w-2], dst[w-1], k)
	}
	// WindowSumMax names its column count, so all three slices can be
	// short of it; a table one element short no longer holds the last
	// id's block, which the ids address. An id past the table or below
	// zero, and a window wider than the span or the sequence, panic too.
	const rows, span, vocab = 2, 3, 4
	ids := []int{vocab - 1, 0, vocab - 1, 1, vocab - 1}
	tab := vocab * span * rows * w
	for _, short := range []struct {
		name             string
		dst, bias, table int
	}{{"dst", 1, 0, 0}, {"bias", 0, 1, 0}, {"table", 0, 0, 1}} {
		mustPanic(t, "WindowSumMax short "+short.name, func() {
			WindowSumMax(ones(w-short.dst), ones(w-short.bias), ones(tab-short.table), ids, w, rows, span, span)
		})
	}
	for _, bad := range []int{vocab, -1} {
		mustPanic(t, "WindowSumMax id outside the table", func() {
			WindowSumMax(ones(w), ones(w), ones(tab), []int{0, 1, bad, 2}, w, rows, span, span)
		})
	}
	mustPanic(t, "WindowSumMax width > span", func() { WindowSumMax(ones(w), ones(w), ones(tab), ids, w, rows, span+1, span) })
	mustPanic(t, "WindowSumMax width > len(ids)", func() { WindowSumMax(ones(w), ones(w), ones(tab), ids[:2], w, rows, span, span) })
	// The full-size calls do not panic.
	GemmSW(ones(m*w), w, ones(m*k), k, ones(k*w), w, m, w, k)
	GemmTN(ones(m*w), ones(k*m), ones(k*w), m, w, k)
	GemvT(ones(w), ones(k*w), ones(k))
	GemvTSeq(ones(w), ones(k*w), ones(k))
	dst = ones(w)
	WindowSumMax(dst, ones(w), ones(tab), ids, w, rows, span, span)
	if dst[0] != 1+rows*span || dst[w-1] != 1+rows*span {
		t.Errorf("WindowSumMax of ones: %v … %v, want %d", dst[0], dst[w-1], 1+rows*span)
	}
}
