package f64

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the kernel layer, at the sizes the nn hot
// paths actually use: LSTM gate rows (In/H up to 64), CNN windows
// (Width·In up to 160), and the GEMM family at the models' own shapes.
// The CI bench-smoke step runs these alongside the model-level
// benchmarks.

var benchSink float64

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 64, 160, 256} {
		x, y := randVec(rng, n), randVec(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Dot(x, y)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{16, 64, 256} {
		x, y := randVec(rng, n), randVec(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, y)
			}
		})
	}
}

func BenchmarkGemvN(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{64, 64}, {256, 64}} {
		m, n := dims[0], dims[1]
		a, x := randVec(rng, m*n), randVec(rng, n)
		dst := make([]float64, m)
		b.Run(fmt.Sprintf("m=%d/n=%d", m, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GemvN(dst, a, x)
			}
		})
	}
}

// benchLegs runs one benchmark body through the dispatching entry
// point and, as the "go" sub-benchmark, pinned to the Go reference, so
// one run shows the vector kernel's ratio at that shape.
func benchLegs(b *testing.B, run func(b *testing.B)) {
	b.Run("dispatch", run)
	b.Run("go", func(b *testing.B) {
		defer setAVX2(false)()
		run(b)
	})
}

// benchPaths is benchLegs over a plain loop of fn.
func benchPaths(b *testing.B, fn func()) {
	benchLegs(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

// The GEMM family at the shapes core.DefaultConfig's models run
// (Embed 16, Hidden 32, Kernels 32, conv widths up to 5, statements
// around 96 characters, serving batches of 16).

func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range []struct {
		name    string
		m, n, k int
	}{
		{"lstm-input-seq/m=96/n=128/k=16", 96, 128, 16},      // pre = X·Wxᵀ over a whole statement
		{"lstm-recurrent-scalar/m=1/n=128/k=32", 1, 128, 32}, // pre += hₜ₋₁·Whᵀ, one example
		{"lstm-input-grad/m=96/n=16/k=128", 96, 16, 128},     // dX = dpre·Wx
	} {
		a, bm := randVec(rng, sh.m*sh.k), randVec(rng, sh.k*sh.n)
		c := make([]float64, sh.m*sh.n)
		b.Run(sh.name, func(b *testing.B) {
			benchPaths(b, func() { Gemm(c, a, bm, sh.m, sh.n, sh.k) })
		})
	}
}

func BenchmarkGemmSW(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	// The batched LSTM step on 16 lanes: Hₜ₋₁ (16×H) times the h
	// candidate columns and the 3h gate columns of Whᵀ (H×4H).
	const lanes, h = 16, 32
	a, bm := randVec(rng, lanes*h), randVec(rng, h*4*h)
	for _, sh := range []struct {
		name string
		w    int
		b    []float64
	}{
		{"lstm-batch16-cand/m=16/w=32/k=32/ldb=128", h, bm},
		{"lstm-batch16-gates/m=16/w=96/k=32/ldb=128", 3 * h, bm[h:]},
	} {
		c := make([]float64, lanes*sh.w)
		b.Run(sh.name, func(b *testing.B) {
			benchPaths(b, func() { GemmSW(c, sh.w, a, h, sh.b, 4*h, lanes, sh.w, h) })
		})
	}
}

func BenchmarkGemmS(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	// The conv layer's copy-free im2col product: every window of 5
	// embedded characters (k = 5·16, rows 16 apart) by 32 kernels.
	const positions, kernels, k, lda = 92, 32, 80, 16
	a, bm := randVec(rng, (positions-1)*lda+k), randVec(rng, k*kernels)
	c := make([]float64, positions*kernels)
	b.Run("conv-im2col/m=92/n=32/k=80/lda=16", func(b *testing.B) {
		benchPaths(b, func() { GemmS(c, a, lda, bm, positions, kernels, k) })
	})
}

func BenchmarkWindowSumMax(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	// The widest bank of a frozen, tabled character CNN over one
	// 96-character statement: 92 windows of 5 tokens, 4 table rows of 32
	// kernels per token and offset (Embed 16), 76 characters — the same
	// windows as BenchmarkGemmS above, whose GEMM (then a max-pool scan)
	// this replaces: 92·5·4 row adds instead of 92·20 4-term blocks. The
	// Tiny shape (8 kernels, 2 rows) runs the 4-column tile.
	for _, sh := range []struct {
		name          string
		k, rows, span int
	}{{"conv-table/windows=92/span=5/rows=4/k=32", 32, 4, 5}, {"conv-table/windows=92/span=5/rows=2/k=8", 8, 2, 5}} {
		const vocab, tokens = 76, 96
		table, bias := randVec(rng, vocab*sh.span*sh.rows*sh.k), randVec(rng, sh.k)
		ids := make([]int, tokens)
		for i := range ids {
			ids[i] = rng.Intn(vocab)
		}
		dst := make([]float64, sh.k)
		b.Run(sh.name, func(b *testing.B) {
			benchPaths(b, func() { WindowSumMax(dst, bias, table, ids, sh.k, sh.rows, sh.span, sh.span) })
		})
	}
}

func BenchmarkGemmTN(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	// LSTM weight gradients summed over a statement: dWh += dpreᵀ·H,
	// dWx += dpreᵀ·X.
	for _, sh := range []struct {
		name    string
		m, n, k int
	}{
		{"lstm-dWh/m=128/n=32/k=96", 128, 32, 96},
		{"lstm-dWx/m=128/n=16/k=96", 128, 16, 96},
	} {
		a, bm := randVec(rng, sh.k*sh.m), randVec(rng, sh.k*sh.n)
		c := make([]float64, sh.m*sh.n)
		b.Run(sh.name, func(b *testing.B) {
			benchPaths(b, func() { GemmTN(c, a, bm, sh.m, sh.n, sh.k) })
		})
	}
}

func BenchmarkGemvT(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	// Dense backward, dx = Wᵀ·dy: the CNN head (96 pooled features to 5
	// classes) and a square hidden-sized case.
	for _, dims := range [][2]int{{5, 96}, {32, 32}} {
		m, n := dims[0], dims[1]
		a, x := randVec(rng, m*n), randVec(rng, m)
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("m=%d/n=%d", m, n), func(b *testing.B) {
			benchPaths(b, func() { GemvT(dst, a, x) })
		})
	}
}

func BenchmarkGemvTSeq(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	// The BPTT recurrence dhₜ₋₁ = Whᵀ·dpreₜ on Wh as stored (4h×h), at
	// core.DefaultConfig's Hidden 32 and TinyConfig's 12. The third leg is
	// what Backward ran before — GemvN over the transposed copy (plain
	// Go on either path) — so one run prints the ratio.
	for _, h := range []int{32, 12} {
		a, x := randVec(rng, 4*h*h), randVec(rng, 4*h)
		at := make([]float64, len(a))
		Transpose(at, a, 4*h, h)
		dst := make([]float64, h)
		b.Run(fmt.Sprintf("lstm-bptt/outputs=%d/terms=%d", h, 4*h), func(b *testing.B) {
			benchPaths(b, func() { GemvTSeq(dst, a, x) })
			b.Run("gemvn-transposed", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GemvN(dst, at, x)
				}
			})
		})
	}
}
