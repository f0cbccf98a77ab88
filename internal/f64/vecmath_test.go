package f64

import (
	"math"
	"math/rand"
	"testing"
)

// ulpDiff returns the distance in representable float64 steps between
// two finite same-sign values (0 when bit-equal).
func ulpDiff(a, b float64) uint64 {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	// Map to a monotone integer line so the difference counts
	// representable values even across the ±0 boundary.
	order := func(u uint64) int64 {
		if u&(1<<63) != 0 {
			return -int64(u &^ (1 << 63))
		}
		return int64(u)
	}
	d := order(ab) - order(bb)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// sigmoidRef is the straightforward libm logistic, branch-matched to
// sigmoid1 so the comparison measures the exp core, not the algebraic
// rearrangement.
func sigmoidRef(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// testArgs returns a deterministic sweep of arguments: dense coverage
// of the gate-activation range, log-spaced magnitudes out to the
// over/underflow fringes, and the exact branch cutoffs.
func testArgs() []float64 {
	rng := rand.New(rand.NewSource(7))
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, (rng.Float64()-0.5)*40) // typical pre-activations
	}
	for i := 0; i < 4000; i++ {
		m := math.Pow(10, rng.Float64()*6-3) // 1e-3 .. 1e3
		if rng.Intn(2) == 0 {
			m = -m
		}
		xs = append(xs, m)
	}
	for _, c := range []float64{
		0, 0.625, 0.6249999, 19.06, 20, 21, 708, 708.0000001, 709,
		709.782712893384, 709.7827128933841, 710, 745, 745.1332191019412, 746,
		1e-300, 5e-324, 2.2250738585072014e-308, // subnormal / min-normal
	} {
		xs = append(xs, c, -c)
	}
	return xs
}

// vecFns are the vectorized transcendentals; gateFns the two of them
// with an AVX2 kernel underneath.
type vecFn struct {
	name string
	f    func(dst, x []float64)
}

var (
	vecFns  = []vecFn{{"ExpV", ExpV}, {"TanhV", TanhV}, {"SigmoidV", SigmoidV}}
	gateFns = vecFns[1:]
)

func TestExpVAccuracy(t *testing.T) {
	xs := testArgs()
	got := make([]float64, len(xs))
	ExpV(got, xs)
	var worst uint64
	for i, x := range xs {
		want := math.Exp(x)
		g := got[i]
		if math.IsInf(want, 1) || want == 0 {
			if g != want {
				t.Fatalf("ExpV(%g) = %g, want %g", x, g, want)
			}
			continue
		}
		if d := ulpDiff(g, want); d > worst {
			worst = d
			if d > 4 {
				t.Fatalf("ExpV(%g) = %g, want %g (%d ULP)", x, g, want, d)
			}
		}
	}
	t.Logf("ExpV worst case vs math.Exp: %d ULP over %d args", worst, len(xs))
}

func TestTanhVAccuracy(t *testing.T) { bothPaths(t, testTanhVAccuracy) }

func testTanhVAccuracy(t *testing.T) {
	xs := testArgs()
	got := make([]float64, len(xs))
	TanhV(got, xs)
	var worst uint64
	for i, x := range xs {
		want := math.Tanh(x)
		g := got[i]
		if g < -1 || g > 1 {
			t.Fatalf("TanhV(%g) = %g out of [-1,1]", x, g)
		}
		if d := ulpDiff(g, want); d > worst {
			worst = d
			if d > 8 {
				t.Fatalf("TanhV(%g) = %g, want %g (%d ULP)", x, g, want, d)
			}
		}
	}
	t.Logf("TanhV worst case vs math.Tanh: %d ULP over %d args", worst, len(xs))
}

func TestSigmoidVAccuracy(t *testing.T) { bothPaths(t, testSigmoidVAccuracy) }

func testSigmoidVAccuracy(t *testing.T) {
	xs := testArgs()
	got := make([]float64, len(xs))
	SigmoidV(got, xs)
	var worst uint64
	for i, x := range xs {
		want := sigmoidRef(x)
		g := got[i]
		if g < 0 || g > 1 {
			t.Fatalf("SigmoidV(%g) = %g out of [0,1]", x, g)
		}
		if d := ulpDiff(g, want); d > worst {
			worst = d
			if d > 8 {
				t.Fatalf("SigmoidV(%g) = %g, want %g (%d ULP)", x, g, want, d)
			}
		}
	}
	t.Logf("SigmoidV worst case vs libm logistic: %d ULP over %d args", worst, len(xs))
}

// TestVecmathSpecials pins the IEEE special cases the accuracy sweeps
// can only check by value: NaN propagation, infinities, signed zero,
// and subnormals.
func TestVecmathSpecials(t *testing.T) { bothPaths(t, testVecmathSpecials) }

func testVecmathSpecials(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	denorm := 5e-324
	xs := []float64{nan, inf, -inf, 0, math.Copysign(0, -1), denorm, -denorm, 1000, -1000}

	exps := make([]float64, len(xs))
	ExpV(exps, xs)
	for i, want := range []float64{nan, inf, 0, 1, 1, 1, 1, inf, 0} {
		if math.IsNaN(want) != math.IsNaN(exps[i]) || (!math.IsNaN(want) && exps[i] != want) {
			t.Errorf("ExpV(%g) = %g, want %g", xs[i], exps[i], want)
		}
	}

	tanhs := make([]float64, len(xs))
	TanhV(tanhs, xs)
	for i, want := range []float64{nan, 1, -1, 0, math.Copysign(0, -1), denorm, -denorm, 1, -1} {
		g := tanhs[i]
		switch {
		case math.IsNaN(want):
			if !math.IsNaN(g) {
				t.Errorf("TanhV(NaN) = %g, want NaN", g)
			}
		case g != want || math.Signbit(g) != math.Signbit(want):
			t.Errorf("TanhV(%g) = %g, want %g", xs[i], g, want)
		}
	}

	sigs := make([]float64, len(xs))
	SigmoidV(sigs, xs)
	for i, want := range []float64{nan, 1, 0, 0.5, 0.5, 0.5, 0.5, 1, 0} {
		g := sigs[i]
		switch {
		case math.IsNaN(want):
			if !math.IsNaN(g) {
				t.Errorf("SigmoidV(NaN) = %g, want NaN", g)
			}
		case g != want:
			t.Errorf("SigmoidV(%g) = %g, want %g", xs[i], g, want)
		}
	}
}

// TestVecmathElementPurity verifies the rounding contract that batched
// inference relies on: each output element depends only on its input
// element, so any block decomposition of a call is bit-identical. The
// wide uniform draw almost never puts four |x| < 0.625 side by side, so
// the gate-scale draws are what take tanh's all-polynomial and
// straddling blocks apart (pieces shorter than four are the element
// functions themselves).
func TestVecmathElementPurity(t *testing.T) { bothPaths(t, testVecmathElementPurity) }

func testVecmathElementPurity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 257 // deliberately not a multiple of 4
	wide := make([]float64, n)
	for i := range wide {
		wide[i] = (rng.Float64() - 0.5) * 60
	}
	wide[3] = 800            // slow-path element inside a 4-lane block
	wide[100] = math.Inf(-1) // special inside a block
	unit, fifth := make([]float64, n), make([]float64, n)
	for i := range unit {
		unit[i] = rng.NormFloat64()
		fifth[i] = rng.NormFloat64() * 0.2
	}
	for _, in := range []struct {
		name string
		x    []float64
	}{{"uniform ±30", wide}, {"N(0,1)", unit}, {"N(0,0.2)", fifth}} {
		x := in.x
		for _, fn := range vecFns {
			whole := make([]float64, len(x))
			fn.f(whole, x)
			pieces := make([]float64, len(x))
			for lo := 0; lo < len(x); {
				hi := lo + 1 + rng.Intn(7)
				if hi > len(x) {
					hi = len(x)
				}
				fn.f(pieces[lo:hi], x[lo:hi])
				lo = hi
			}
			for i := range x {
				if math.Float64bits(whole[i]) != math.Float64bits(pieces[i]) {
					t.Fatalf("%s over %s: element %d differs between whole-slice and blocked evaluation", fn.name, in.name, i)
				}
			}
		}
	}
}

// TestVecmathAllocFree guards the warm-path allocation contract.
func TestVecmathAllocFree(t *testing.T) { bothPaths(t, testVecmathAllocFree) }

func testVecmathAllocFree(t *testing.T) {
	x := make([]float64, 512)
	dst := make([]float64, 512)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	for _, fn := range vecFns {
		if allocs := testing.AllocsPerRun(100, func() { fn.f(dst, x) }); allocs != 0 {
			t.Errorf("%s allocs/op = %v, want 0", fn.name, allocs)
		}
	}
}

// benchArgs spreads arguments across the branch ranges the LSTM gates
// actually exercise.
func benchArgs(n int) []float64 {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, n)
	for i := range x {
		x[i] = (rng.Float64() - 0.5) * 12
	}
	return x
}

// reportPerElt reports a finished b.N loop over n-element calls as ns/elt.
func reportPerElt(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elt")
}

// BenchmarkExpV has the same two legs as the gates although ExpV has no
// kernel, so its "go" leg is the control for theirs.
func BenchmarkExpV(b *testing.B) {
	x := benchArgs(1024)
	dst := make([]float64, len(x))
	benchLegs(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ExpV(dst, x)
		}
		reportPerElt(b, len(x))
	})
}

func BenchmarkExpStd(b *testing.B) {
	x := benchArgs(1024)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(x)))
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			dst[j] = math.Exp(v)
		}
	}
}

// gateArgs draws n pre-activations at the scale an LSTM step sees: N(0,1).
func gateArgs(n int) []float64 {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// benchGate times one nonlinearity on its dispatch and go legs (see
// benchLegs) at the batched LSTM step's own call — 16 lanes of 32
// candidates for TanhV, of 96 gates for SigmoidV, gate-scale inputs —
// and on the 1 024 uniform ±6 arguments of the other benchmarks here.
func benchGate(b *testing.B, f func(dst, x []float64), lstmBlock string, lstmElts int) {
	for _, in := range []struct {
		name string
		x    []float64
	}{
		{lstmBlock + "/normal", gateArgs(lstmElts)},
		{"n=1024/uniform6", benchArgs(1024)},
	} {
		dst := make([]float64, len(in.x))
		b.Run(in.name, func(b *testing.B) {
			benchLegs(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f(dst, in.x)
				}
				reportPerElt(b, len(in.x))
			})
		})
	}
}

func BenchmarkTanhV(b *testing.B) { benchGate(b, TanhV, "lstm-batch16-cand/n=16x32", 16*32) }

func BenchmarkSigmoidV(b *testing.B) { benchGate(b, SigmoidV, "lstm-batch16-gates/n=16x96", 16*96) }
