package f64

import "math"

// This file provides the transcendental functions behind the LSTM
// gates and the batched inference path: ExpV, TanhV, and SigmoidV
// evaluate exp(x), tanh(x), and the logistic function over whole gate
// blocks instead of one libm call per element. All three share one
// range-reduced rational-polynomial exp core (the classic Cephes
// reduction):
//
//	k = floor(x·log2(e) + 1/2)
//	r = (x − k·ln2_hi) − k·ln2_lo          (|r| ≤ ln2/2)
//	exp(r) = 1 + 2·r·P(r²) / (Q(r²) − r·P(r²))
//	exp(x) = exp(r) · 2^k
//
// with the 2^k scaling performed by constructing the float's exponent
// bits directly when k keeps the result normal, and math.Ldexp on the
// over/underflow fringes (where the result is ±Inf, 0, or subnormal).
//
// # What runs where
//
// Each function is defined by its element function — exp1, tanh1,
// sigmoid1 — and its Go path is the loop over it: the only path off
// amd64 or without AVX2, and what the tests compare against. On a CPU
// with AVX2 (useAVX2, read once at init) TanhV and SigmoidV hand their
// whole four-element blocks to the kernels in vecmath_amd64.s, which run
// the element function's operation sequence in every lane of a YMM
// register; a kernel stops at the first block holding a lane its
// formulas do not cover (NaN or |x| > 708 for the logistic; NaN,
// |x| > 20 or x·x == 0 for tanh), the element function finishes that
// block, the kernel resumes behind it, and the n mod 4 tail is the
// element function again. ExpV has no kernel: nothing outside tests and
// the benchmark harness calls it (softmax uses math.Exp), which also
// leaves it as the control when the other two are measured.
//
// # Rounding contract
//
// Like every kernel in this package the evaluation order is fixed: each
// output element is a pure function of its input element alone —
// nothing about lane position, block offset, slice length, or which
// implementation ran affects rounding — so splitting one call into
// many (or fusing many into one) is bit-identical. This is what lets
// the batched n-row forward path and the per-example scalar path share
// results exactly.
//
// # Accuracy contract
//
// The kernels trade the last fraction of a ULP for branch-free speed;
// the guaranteed bounds (enforced by the package tests against
// math.Exp/math.Tanh and a reference logistic) are:
//
//	ExpV:     ≤ 4 ULP relative error over the full finite range
//	TanhV:    ≤ 8 ULP relative error (|result| ≤ 1 always)
//	SigmoidV: ≤ 8 ULP relative error (result in [0,1] always)
//
// Specials follow libm: NaN propagates, ExpV(±Inf) = +Inf/0,
// TanhV(±Inf) = ±1, SigmoidV(±Inf) = 1/0, and subnormal inputs and
// outputs are handled (for tiny x, TanhV(x) = x exactly and the exp
// underflow fringe rounds through math.Ldexp).
const (
	expLog2E = 1.44269504088896340736 // log2(e)
	expLn2Hi = 6.93145751953125e-1    // high half of ln 2 (exact in 24 bits)
	expLn2Lo = 1.42860682030941723212e-6

	// Rational coefficients for exp(r) on |r| ≤ ln2/2 (Cephes exp.c).
	expP0 = 1.26177193074810590878e-4
	expP1 = 3.02994407707441961300e-2
	expP2 = 9.99999999999999999910e-1
	expQ0 = 3.00198505138664455042e-6
	expQ1 = 2.52448340349684104192e-3
	expQ2 = 2.27265548208155028766e-1
	expQ3 = 2.00000000000000000005e0

	// expFastCut bounds the branch-free fast path: for |x| ≤ 708 the
	// scale factor 2^k stays a normal float (k ∈ [−1021, 1021]), so it
	// can be built from exponent bits without over/underflow checks.
	expFastCut = 708.0
	// Beyond these the result is exactly +Inf / 0 (the same constants
	// math.Exp uses).
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02

	// Rational coefficients for tanh(x) on |x| < 0.625 (Cephes tanh.c):
	// tanh(x) = x + x³·P(x²)/Q(x²), Q monic.
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3

	// tanhSatCut: beyond this 1 − 2/(e^{2x}+1) rounds to exactly 1.
	tanhSatCut = 20.0
)

// expRat evaluates exp1's reduction but returns the unassembled
// rational: exp(x) = scale·num/den. Tanh and the logistic fold their own
// final ratio into this one, so each costs a single division instead of
// two. Callers guarantee |x| ≤ expFastCut.
func expRat(x float64) (num, den, scale float64) {
	kf := math.Floor(expLog2E*x + 0.5)
	r := x - kf*expLn2Hi
	r -= kf * expLn2Lo
	z := r * r
	p := r * ((expP0*z+expP1)*z + expP2)
	q := ((expQ0*z+expQ1)*z+expQ2)*z + expQ3
	return q + p, q - p, math.Float64frombits(uint64(int64(kf)+1023) << 52)
}

// expSlow handles the fringes outside the fast range: NaN, hard
// over/underflow, and the band where the result is ±Inf-adjacent or
// subnormal and the 2^k scale must round through math.Ldexp.
func expSlow(x float64) float64 {
	switch {
	case x != x:
		return x
	case x >= expOverflow:
		// math.Exp also rounds to +Inf at exactly the overflow bound.
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	}
	kf := math.Floor(expLog2E*x + 0.5)
	r := x - kf*expLn2Hi
	r -= kf * expLn2Lo
	z := r * r
	p := r * ((expP0*z+expP1)*z + expP2)
	q := ((expQ0*z+expQ1)*z+expQ2)*z + expQ3
	return math.Ldexp(1+2*p/(q-p), int(kf))
}

// exp1 is the scalar element function of ExpV: range reduction,
// rational approximation, and a bit-built 2^k scale for |x| ≤
// expFastCut, expSlow beyond.
func exp1(x float64) float64 {
	if !(math.Abs(x) <= expFastCut) { // NaN included
		return expSlow(x)
	}
	kf := math.Floor(expLog2E*x + 0.5)
	r := x - kf*expLn2Hi
	r -= kf * expLn2Lo
	z := r * r
	p := r * ((expP0*z+expP1)*z + expP2)
	q := ((expQ0*z+expQ1)*z+expQ2)*z + expQ3
	return (1 + 2*p/(q-p)) * math.Float64frombits(uint64(int64(kf)+1023)<<52)
}

// tanh1 is the scalar element function of TanhV.
func tanh1(x float64) float64 {
	ax := math.Abs(x)
	switch {
	case ax < 0.625:
		z := x * x
		if z == 0 {
			// ±0 and deeply subnormal x: tanh(x) = x exactly, and the
			// early return keeps the sign of −0 (x + x·z·(…) would
			// round it to +0).
			return x
		}
		return x + x*z*((tanhP0*z+tanhP1)*z+tanhP2)/(((z+tanhQ0)*z+tanhQ1)*z+tanhQ2)
	case ax <= tanhSatCut:
		// tanh(|x|) = 1 − 2/(e+1) with e = exp(2|x|) = s·num/den,
		// folded into one division: 1 − 2·den/(s·num + den).
		num, den, s := expRat(2 * ax)
		t := 1 - 2*den/(s*num+den)
		if x < 0 {
			return -t
		}
		return t
	case x != x:
		return x
	case x > 0:
		return 1
	default:
		return -1
	}
}

// sigmoid1 is the scalar element function of SigmoidV. The two-branch
// form keeps the exp argument non-positive, so the logistic never
// overflows and stays monotone at the extremes.
func sigmoid1(x float64) float64 {
	switch {
	case x != x:
		return x
	case x >= 0:
		if x > expFastCut {
			return 1 // exp(−x) ≤ 2^{-1021}: 1/(1+ε) rounds to 1
		}
		// 1/(1+e) with e = exp(−x) = s·num/den, one division.
		num, den, s := expRat(-x)
		return den / (den + s*num)
	default:
		if x < -expFastCut {
			e := expSlow(x) // subnormal or 0
			return e / (1 + e)
		}
		// e/(1+e) with e = exp(x) = s·num/den, one division.
		num, den, s := expRat(x)
		sn := s * num
		return sn / (den + sn)
	}
}

// ExpV computes dst[i] = exp(x[i]) for i < len(x).
func ExpV(dst, x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = dst[n-1] // bounds-check hint; panics (rather than silently growing) if dst is short
	for i, v := range x {
		dst[i] = exp1(v)
	}
}

// TanhV computes dst[i] = tanh(x[i]) for i < len(x). dst may alias x
// elementwise (in-place gate activation).
func TanhV(dst, x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = dst[n-1] // bounds-check hint; panics (rather than silently growing) if dst is short
	i := 0
	if useAVX2 {
		i = tanhVec(dst, x)
	}
	for ; i < n; i++ {
		dst[i] = tanh1(x[i])
	}
}

// SigmoidV computes dst[i] = 1/(1+exp(−x[i])) for i < len(x). dst may
// alias x elementwise.
func SigmoidV(dst, x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = dst[n-1] // bounds-check hint; panics (rather than silently growing) if dst is short
	i := 0
	if useAVX2 {
		i = sigmoidVec(dst, x)
	}
	for ; i < n; i++ {
		dst[i] = sigmoid1(x[i])
	}
}

// tanhVec computes every whole block of four elements of TanhV(dst, x)
// through the AVX2 kernel and returns how many elements that was. The
// kernel stops at a block holding a lane it does not cover; tanh1
// finishes that block and the kernel is re-entered behind it. The
// caller has checked dst against len(x).
func tanhVec(dst, x []float64) int {
	blocks := len(x) / 4
	for b := 0; b < blocks; b++ {
		b += tanhBlocks(&dst[4*b], &x[4*b], blocks-b)
		if b == blocks {
			break
		}
		for j := 4 * b; j < 4*b+4; j++ {
			dst[j] = tanh1(x[j])
		}
	}
	return 4 * blocks
}

// sigmoidVec is tanhVec for SigmoidV, over sigmoidBlocks and sigmoid1.
func sigmoidVec(dst, x []float64) int {
	blocks := len(x) / 4
	for b := 0; b < blocks; b++ {
		b += sigmoidBlocks(&dst[4*b], &x[4*b], blocks-b)
		if b == blocks {
			break
		}
		for j := 4 * b; j < 4*b+4; j++ {
			dst[j] = sigmoid1(x[j])
		}
	}
	return 4 * blocks
}
