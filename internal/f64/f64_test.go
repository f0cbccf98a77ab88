package f64

import (
	"math"
	"math/rand"
	"testing"
)

// The kernels change the floating-point summation order relative to a
// naive left-to-right loop, so every property test compares against a
// naive reference within a small absolute tolerance scaled by the
// magnitude of the expected value.
const tol = 1e-12

func close(a, b float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// testSizes covers empty, tiny, every unroll remainder (mod 4), and a
// few larger odd/even lengths up to 257.
func testSizes() []int {
	return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 31, 63, 64, 100, 127, 128, 129, 255, 256, 257}
}

func naiveDot(x, y []float64) float64 {
	sum := 0.0
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum
}

func TestDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testSizes() {
		x, y := randVec(rng, n), randVec(rng, n)
		if got, want := Dot(x, y), naiveDot(x, y); !close(got, want) {
			t.Fatalf("n=%d: Dot = %v, naive %v", n, got, want)
		}
	}
	// y longer than x: extra elements must not contribute.
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6, 1e9}
	if got := Dot(x, y); !close(got, 32) {
		t.Fatalf("Dot with longer y = %v, want 32", got)
	}
	// Self-dot (aliased arguments).
	if got := Dot(x, x); !close(got, 14) {
		t.Fatalf("Dot(x, x) = %v, want 14", got)
	}
}

func TestDotDeterministicOrder(t *testing.T) {
	// The documented recombination ((s0+s1)+(s2+s3))+tail must hold
	// exactly, independent of slice capacity.
	rng := rand.New(rand.NewSource(2))
	for _, n := range testSizes() {
		x, y := randVec(rng, n), randVec(rng, n)
		var s0, s1, s2, s3, tail float64
		i := 0
		for ; i <= n-4; i += 4 {
			s0 += x[i] * y[i]
			s1 += x[i+1] * y[i+1]
			s2 += x[i+2] * y[i+2]
			s3 += x[i+3] * y[i+3]
		}
		for ; i < n; i++ {
			tail += x[i] * y[i]
		}
		want := ((s0 + s1) + (s2 + s3)) + tail
		if got := Dot(x, y); got != want {
			t.Fatalf("n=%d: Dot = %v, documented order gives %v", n, got, want)
		}
		// Extra capacity must not change the result bit-for-bit.
		xc := append(randVec(rng, n), 99)[:n]
		copy(xc, x)
		if got := Dot(xc, y); got != want {
			t.Fatalf("n=%d: Dot with spare capacity = %v, want %v", n, got, want)
		}
	}
}

func TestAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testSizes() {
		x, y := randVec(rng, n), randVec(rng, n)
		a := rng.Float64()*4 - 2
		want := make([]float64, n)
		for i := range want {
			want[i] = y[i] + a*x[i]
		}
		Axpy(a, x, y)
		for i := range want {
			if !close(y[i], want[i]) {
				t.Fatalf("n=%d: Axpy[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
	}
	// Aliased: x += 2*x.
	x := []float64{1, -2, 3, 4, 5}
	Axpy(2, x, x)
	for i, want := range []float64{3, -6, 9, 12, 15} {
		if !close(x[i], want) {
			t.Fatalf("aliased Axpy[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestAddTo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testSizes() {
		x, dst := randVec(rng, n), randVec(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = dst[i] + x[i]
		}
		AddTo(dst, x)
		for i := range want {
			if !close(dst[i], want[i]) {
				t.Fatalf("n=%d: AddTo[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
	// Aliased: x += x doubles.
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	AddTo(x, x)
	for i, want := range []float64{2, 4, 6, 8, 10, 12, 14} {
		if !close(x[i], want) {
			t.Fatalf("aliased AddTo[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dims := range [][2]int{{0, 5}, {1, 1}, {3, 4}, {7, 2}, {17, 33}} {
		m, n := dims[0], dims[1]
		a := randVec(rng, m*n)
		dst := randVec(rng, n*m) // stale contents must be overwritten
		Transpose(dst, a, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if dst[j*m+i] != a[i*n+j] {
					t.Fatalf("m=%d n=%d: Transpose[%d,%d] = %v, want %v", m, n, j, i, dst[j*m+i], a[i*n+j])
				}
			}
		}
	}
}

func TestGemvN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range []int{0, 1, 2, 3, 5, 17} {
		for _, n := range []int{0, 1, 3, 4, 7, 33} {
			a, x := randVec(rng, m*n), randVec(rng, n)
			dst := randVec(rng, m) // stale contents must be overwritten
			GemvN(dst, a, x)
			for r := 0; r < m; r++ {
				want := naiveDot(a[r*n:(r+1)*n], x)
				if !close(dst[r], want) {
					t.Fatalf("m=%d n=%d: GemvN[%d] = %v, want %v", m, n, r, dst[r], want)
				}
			}
		}
	}
}

func TestGemvNAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 5, 13
	a, x := randVec(rng, m*n), randVec(rng, n)
	dst := randVec(rng, m)
	want := make([]float64, m)
	for r := range want {
		want[r] = dst[r] + naiveDot(a[r*n:(r+1)*n], x)
	}
	GemvNAdd(dst, a, x)
	for r := range want {
		if !close(dst[r], want[r]) {
			t.Fatalf("GemvNAdd[%d] = %v, want %v", r, dst[r], want[r])
		}
	}
}

func TestGemvT(t *testing.T) { bothPaths(t, testGemvT) }

func testGemvT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{0, 1, 2, 5, 17} {
		for _, n := range []int{0, 1, 4, 7, 33} {
			a, x := randVec(rng, m*n), randVec(rng, m)
			if m > 0 {
				x[0] = 0 // exercise the zero-skip path
			}
			dst := randVec(rng, n) // stale contents must be overwritten
			GemvT(dst, a, x)
			for c := 0; c < n; c++ {
				want := 0.0
				for r := 0; r < m; r++ {
					want += x[r] * a[r*n+c]
				}
				if !close(dst[c], want) {
					t.Fatalf("m=%d n=%d: GemvT[%d] = %v, want %v", m, n, c, dst[c], want)
				}
			}
		}
	}
}

func naiveGemm(a, b []float64, m, n, k int) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for l := 0; l < k; l++ {
				c[i*n+j] += a[i*k+l] * b[l*n+j]
			}
		}
	}
	return c
}

func TestGemm(t *testing.T) { bothPaths(t, testGemm) }

func testGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][3]int{{0, 3, 2}, {1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {4, 4, 0}, {9, 17, 13}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randVec(rng, m*k), randVec(rng, k*n)
		if m*k > 0 {
			a[0] = 0 // exercise the zero-skip path
		}
		c := randVec(rng, m*n) // Gemm accumulates into C
		want := naiveGemm(a, b, m, n, k)
		for i := range want {
			want[i] += c[i]
		}
		Gemm(c, a, b, m, n, k)
		for i := range want {
			if !close(c[i], want[i]) {
				t.Fatalf("m=%d n=%d k=%d: Gemm[%d] = %v, want %v", m, n, k, i, c[i], want[i])
			}
		}
	}
}

func TestGemmSWPrefix(t *testing.T) { bothPaths(t, testGemmSWPrefix) }

func testGemmSWPrefix(t *testing.T) {
	// GemmSW on a column prefix must reproduce the full product's
	// leading w columns bit-for-bit and leave every other element of C
	// untouched — the contract the batched LSTM's per-step width
	// narrowing relies on.
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][4]int{{1, 1, 1, 1}, {2, 3, 4, 2}, {5, 7, 3, 7}, {9, 17, 13, 5}, {48, 16, 12, 12}, {6, 8, 5, 1}} {
		m, n, k, w := dims[0], dims[1], dims[2], dims[3]
		a, b := randVec(rng, m*k), randVec(rng, k*n)
		if m*k > 0 {
			a[0] = 0 // exercise the zero-skip path
		}
		full := randVec(rng, m*n)
		pref := make([]float64, m*n)
		copy(pref, full)
		orig := make([]float64, m*n)
		copy(orig, full)
		GemmS(full, a, k, b, m, n, k)
		GemmSW(pref, n, a, k, b, n, m, w, k)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := orig[i*n+j]
				if j < w {
					want = full[i*n+j]
				}
				if got := pref[i*n+j]; got != want {
					t.Fatalf("m=%d n=%d k=%d w=%d: GemmSW[%d,%d] = %v, want %v", m, n, k, w, i, j, got, want)
				}
			}
		}
	}
}

func TestGemmTN(t *testing.T) { bothPaths(t, testGemmTN) }

func testGemmTN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{0, 3, 2}, {1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {4, 4, 0}, {9, 17, 13}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randVec(rng, k*m), randVec(rng, k*n)
		if k*m > 0 {
			a[0] = 0 // exercise the zero-skip path
		}
		c := randVec(rng, m*n) // GemmTN accumulates into C
		want := make([]float64, m*n)
		copy(want, c)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				for l := 0; l < k; l++ {
					want[i*n+j] += a[l*m+i] * b[l*n+j]
				}
			}
		}
		GemmTN(c, a, b, m, n, k)
		for i := range want {
			if !close(c[i], want[i]) {
				t.Fatalf("m=%d n=%d k=%d: GemmTN[%d] = %v, want %v", m, n, k, i, c[i], want[i])
			}
		}
	}
}

func TestRandomizedAgainstNaive(t *testing.T) { bothPaths(t, testRandomizedAgainstNaive) }

func testRandomizedAgainstNaive(t *testing.T) {
	// One fuzz-style sweep across all kernels with random sizes 0..257.
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(258)
		x, y := randVec(rng, n), randVec(rng, n)
		if got, want := Dot(x, y), naiveDot(x, y); !close(got, want) {
			t.Fatalf("iter %d n=%d: Dot = %v, naive %v", iter, n, got, want)
		}
		a := rng.Float64()*2 - 1
		want := make([]float64, n)
		for i := range want {
			want[i] = y[i] + a*x[i]
		}
		Axpy(a, x, y)
		for i := range want {
			if !close(y[i], want[i]) {
				t.Fatalf("iter %d n=%d: Axpy[%d]", iter, n, i)
			}
		}
		k, w := rng.Intn(40), rng.Intn(70)
		am, xv := randVec(rng, k*w), randVec(rng, k)
		dst := randVec(rng, w) // stale contents must be overwritten
		GemvTSeq(dst, am, xv)
		for c := range dst {
			sum := 0.0
			for r := 0; r < k; r++ {
				sum += am[r*w+c] * xv[r]
			}
			if !close(dst[c], sum) {
				t.Fatalf("iter %d k=%d w=%d: GemvTSeq[%d] = %v, naive %v", iter, k, w, c, dst[c], sum)
			}
		}
	}
}

func TestKernelsAllocationFree(t *testing.T) { bothPaths(t, testKernelsAllocationFree) }

func testKernelsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, n, k = 16, 24, 12
	a := randVec(rng, m*k)
	b := randVec(rng, k*n)
	c := make([]float64, m*n)
	x := randVec(rng, k)
	yn := make([]float64, m)
	yt := make([]float64, k)
	xk := randVec(rng, k)
	var sink float64
	for name, fn := range map[string]func(){
		"Dot":       func() { sink += Dot(xk, a[:k]) },
		"Axpy":      func() { Axpy(0.5, xk, yt) },
		"AddTo":     func() { AddTo(yt, xk) },
		"Transpose": func() { Transpose(c[:k*m], a, m, k) },
		"GemvN":     func() { GemvN(yn, a, x) },
		"GemvNAdd":  func() { GemvNAdd(yn, a, x) },
		"GemvT":     func() { GemvT(yt, a[:m*k], yn[:m]) },
		"GemvTSeq":  func() { GemvTSeq(yt, a[:m*k], yn[:m]) },
		"Gemm":      func() { Gemm(c, a, b, m, n, k) },
		"GemmTN":    func() { GemmTN(c, a[:k*m], b, m, n, k) },
		// 24 columns of a 2-id table, 3 rows per offset, windows of 2.
		"WindowSumMax": func() { WindowSumMax(c[:n], b[:n], b, []int{1, 0, 0, 1}, n, 3, 2, 2) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Fatalf("%s allocates %.0f times per call", name, allocs)
		}
	}
	_ = sink
}
