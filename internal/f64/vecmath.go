package f64

import "math"

// This file provides the vectorized transcendental kernels behind the
// batched inference path: ExpV, TanhV, and SigmoidV evaluate exp(x),
// tanh(x), and the logistic function over whole gate blocks instead of
// one libm call per element. All three share one range-reduced
// rational-polynomial exp core (the classic Cephes reduction):
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
// # Who runs when
//
// The Go loops below are the reference: the only path off amd64 or
// without AVX2, and what the tests compare against. On a CPU with AVX2
// (useAVX2, read once at init) TanhV and SigmoidV hand their whole
// four-element blocks to the kernels in vecmath_amd64.s, which run the
// element functions' operation sequence in every lane of a YMM
// register. A kernel stops at the first block holding a lane its
// formulas do not cover (NaN or |x| > 708 for the logistic; NaN,
// |x| > 20 or x·x == 0 for tanh); tanh1/sigmoid1 finish that block,
// the kernel resumes behind it, and the n mod 4 tail is the element
// function as in the Go loop. The function comments below describe the
// Go loops. ExpV stays Go: nothing outside tests and the benchmark
// harness calls it (softmax uses math.Exp), so a kernel would buy
// nothing — which also leaves it as the control when the other two are
// measured.
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

	// signBit masks a float64's sign bit for the branchless sign
	// selects in TanhV and SigmoidV.
	signBit = uint64(1) << 63
)

// expCore evaluates exp(x) for |x| ≤ expFastCut: range reduction,
// rational approximation, and a bit-built 2^k scale. Callers guarantee
// the range; no special-case checks run here.
func expCore(x float64) float64 {
	kf := math.Floor(expLog2E*x + 0.5)
	r := x - kf*expLn2Hi
	r -= kf * expLn2Lo
	z := r * r
	p := r * ((expP0*z+expP1)*z + expP2)
	q := ((expQ0*z+expQ1)*z+expQ2)*z + expQ3
	return (1 + 2*p/(q-p)) * math.Float64frombits(uint64(int64(kf)+1023)<<52)
}

// expRat evaluates the same reduction as expCore but returns the
// unassembled rational: exp(x) = scale·num/den. Tanh and the logistic
// fold their own final ratio into this one, so each costs a single
// division instead of two. Callers guarantee |x| ≤ expFastCut.
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

// exp1 is the scalar element function of ExpV.
func exp1(x float64) float64 {
	if math.Abs(x) <= expFastCut {
		return expCore(x)
	}
	return expSlow(x)
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

// ExpV computes dst[i] = exp(x[i]) for i < len(x). The main loop runs
// four independent range-reduction/polynomial chains per iteration
// (breaking the division latency dependency); elements outside the
// fast range fall back to the checked scalar path one at a time.
func ExpV(dst, x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = dst[n-1] // bounds-check hint; panics (rather than silently growing) if dst is short
	i := 0
	for ; i <= n-4; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if math.Abs(x0) <= expFastCut && math.Abs(x1) <= expFastCut &&
			math.Abs(x2) <= expFastCut && math.Abs(x3) <= expFastCut {
			k0 := math.Floor(expLog2E*x0 + 0.5)
			k1 := math.Floor(expLog2E*x1 + 0.5)
			k2 := math.Floor(expLog2E*x2 + 0.5)
			k3 := math.Floor(expLog2E*x3 + 0.5)
			r0 := x0 - k0*expLn2Hi
			r1 := x1 - k1*expLn2Hi
			r2 := x2 - k2*expLn2Hi
			r3 := x3 - k3*expLn2Hi
			r0 -= k0 * expLn2Lo
			r1 -= k1 * expLn2Lo
			r2 -= k2 * expLn2Lo
			r3 -= k3 * expLn2Lo
			z0, z1, z2, z3 := r0*r0, r1*r1, r2*r2, r3*r3
			p0 := r0 * ((expP0*z0+expP1)*z0 + expP2)
			p1 := r1 * ((expP0*z1+expP1)*z1 + expP2)
			p2 := r2 * ((expP0*z2+expP1)*z2 + expP2)
			p3 := r3 * ((expP0*z3+expP1)*z3 + expP2)
			q0 := ((expQ0*z0+expQ1)*z0+expQ2)*z0 + expQ3
			q1 := ((expQ0*z1+expQ1)*z1+expQ2)*z1 + expQ3
			q2 := ((expQ0*z2+expQ1)*z2+expQ2)*z2 + expQ3
			q3 := ((expQ0*z3+expQ1)*z3+expQ2)*z3 + expQ3
			dst[i] = (1 + 2*p0/(q0-p0)) * math.Float64frombits(uint64(int64(k0)+1023)<<52)
			dst[i+1] = (1 + 2*p1/(q1-p1)) * math.Float64frombits(uint64(int64(k1)+1023)<<52)
			dst[i+2] = (1 + 2*p2/(q2-p2)) * math.Float64frombits(uint64(int64(k2)+1023)<<52)
			dst[i+3] = (1 + 2*p3/(q3-p3)) * math.Float64frombits(uint64(int64(k3)+1023)<<52)
			continue
		}
		dst[i] = exp1(x0)
		dst[i+1] = exp1(x1)
		dst[i+2] = exp1(x2)
		dst[i+3] = exp1(x3)
	}
	for ; i < n; i++ {
		dst[i] = exp1(x[i])
	}
}

// TanhV computes dst[i] = tanh(x[i]) for i < len(x). When four
// consecutive elements take the same tanh1 branch (all small-argument
// polynomial, or all exp-based), the block runs as four interleaved
// inline chains — the per-element formulas are exactly tanh1's, but
// the four serial poly→divide dependency chains overlap, so the
// divisions pipeline instead of serializing behind a call boundary.
// Mixed or fringe blocks fall back to tanh1 per element, which keeps
// every element bit-identical to the scalar path regardless of its
// neighbors. dst may alias x elementwise (in-place gate activation).
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
	for ; i <= n-4; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		a0, a1, a2, a3 := math.Abs(x0), math.Abs(x1), math.Abs(x2), math.Abs(x3)
		if a0 < 0.625 && a1 < 0.625 && a2 < 0.625 && a3 < 0.625 {
			z0, z1, z2, z3 := x0*x0, x1*x1, x2*x2, x3*x3
			if z0 != 0 && z1 != 0 && z2 != 0 && z3 != 0 {
				dst[i] = x0 + x0*z0*((tanhP0*z0+tanhP1)*z0+tanhP2)/(((z0+tanhQ0)*z0+tanhQ1)*z0+tanhQ2)
				dst[i+1] = x1 + x1*z1*((tanhP0*z1+tanhP1)*z1+tanhP2)/(((z1+tanhQ0)*z1+tanhQ1)*z1+tanhQ2)
				dst[i+2] = x2 + x2*z2*((tanhP0*z2+tanhP1)*z2+tanhP2)/(((z2+tanhQ0)*z2+tanhQ1)*z2+tanhQ2)
				dst[i+3] = x3 + x3*z3*((tanhP0*z3+tanhP1)*z3+tanhP2)/(((z3+tanhQ0)*z3+tanhQ1)*z3+tanhQ2)
				continue
			}
		} else if a0 >= 0.625 && a0 <= tanhSatCut && a1 >= 0.625 && a1 <= tanhSatCut &&
			a2 >= 0.625 && a2 <= tanhSatCut && a3 >= 0.625 && a3 <= tanhSatCut {
			// expRat(2·a), inlined and interleaved four-wide (the compiler
			// declines to inline it, which would serialize the chains
			// behind call boundaries). Same expressions ⇒ same bits.
			y0, y1, y2, y3 := 2*a0, 2*a1, 2*a2, 2*a3
			k0 := math.Floor(expLog2E*y0 + 0.5)
			k1 := math.Floor(expLog2E*y1 + 0.5)
			k2 := math.Floor(expLog2E*y2 + 0.5)
			k3 := math.Floor(expLog2E*y3 + 0.5)
			r0 := y0 - k0*expLn2Hi
			r1 := y1 - k1*expLn2Hi
			r2 := y2 - k2*expLn2Hi
			r3 := y3 - k3*expLn2Hi
			r0 -= k0 * expLn2Lo
			r1 -= k1 * expLn2Lo
			r2 -= k2 * expLn2Lo
			r3 -= k3 * expLn2Lo
			z0, z1, z2, z3 := r0*r0, r1*r1, r2*r2, r3*r3
			p0 := r0 * ((expP0*z0+expP1)*z0 + expP2)
			p1 := r1 * ((expP0*z1+expP1)*z1 + expP2)
			p2 := r2 * ((expP0*z2+expP1)*z2 + expP2)
			p3 := r3 * ((expP0*z3+expP1)*z3 + expP2)
			q0 := ((expQ0*z0+expQ1)*z0+expQ2)*z0 + expQ3
			q1 := ((expQ0*z1+expQ1)*z1+expQ2)*z1 + expQ3
			q2 := ((expQ0*z2+expQ1)*z2+expQ2)*z2 + expQ3
			q3 := ((expQ0*z3+expQ1)*z3+expQ2)*z3 + expQ3
			n0, d0, s0 := q0+p0, q0-p0, math.Float64frombits(uint64(int64(k0)+1023)<<52)
			n1, d1, s1 := q1+p1, q1-p1, math.Float64frombits(uint64(int64(k1)+1023)<<52)
			n2, d2, s2 := q2+p2, q2-p2, math.Float64frombits(uint64(int64(k2)+1023)<<52)
			n3, d3, s3 := q3+p3, q3-p3, math.Float64frombits(uint64(int64(k3)+1023)<<52)
			t0 := 1 - 2*d0/(s0*n0+d0)
			t1 := 1 - 2*d1/(s1*n1+d1)
			t2 := 1 - 2*d2/(s2*n2+d2)
			t3 := 1 - 2*d3/(s3*n3+d3)
			// t is strictly positive here (ax ≥ 0.625 ⇒ t ≥ 0.55), so
			// OR-ing in the argument's sign bit is an exact branchless
			// negate-if-negative — same bits as tanh1's `return -t`.
			dst[i] = math.Float64frombits(math.Float64bits(t0) | math.Float64bits(x0)&signBit)
			dst[i+1] = math.Float64frombits(math.Float64bits(t1) | math.Float64bits(x1)&signBit)
			dst[i+2] = math.Float64frombits(math.Float64bits(t2) | math.Float64bits(x2)&signBit)
			dst[i+3] = math.Float64frombits(math.Float64bits(t3) | math.Float64bits(x3)&signBit)
			continue
		}
		dst[i] = tanh1(x0)
		dst[i+1] = tanh1(x1)
		dst[i+2] = tanh1(x2)
		dst[i+3] = tanh1(x3)
	}
	for ; i < n; i++ {
		dst[i] = tanh1(x[i])
	}
}

// SigmoidV computes dst[i] = 1/(1+exp(−x[i])) for i < len(x). Both
// sign branches of sigmoid1 reduce through the same expRat(−|x|) call
// and share the denominator den + s·num — only the numerator differs
// (den for x ≥ 0, s·num for x < 0) — so one fast path with four
// interleaved inline chains covers every |x| ≤ expFastCut regardless
// of sign, with a per-lane numerator select. Fringe blocks (NaN or
// |x| > expFastCut) fall back to sigmoid1 per element; every element
// stays bit-identical to the scalar path. dst may alias x elementwise.
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
	for ; i <= n-4; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if math.Abs(x0) <= expFastCut && math.Abs(x1) <= expFastCut &&
			math.Abs(x2) <= expFastCut && math.Abs(x3) <= expFastCut {
			// expRat(−|x|), inlined and interleaved four-wide (the
			// compiler declines to inline it, which would serialize the
			// chains behind call boundaries). Same expressions ⇒ same bits.
			y0, y1, y2, y3 := -math.Abs(x0), -math.Abs(x1), -math.Abs(x2), -math.Abs(x3)
			k0 := math.Floor(expLog2E*y0 + 0.5)
			k1 := math.Floor(expLog2E*y1 + 0.5)
			k2 := math.Floor(expLog2E*y2 + 0.5)
			k3 := math.Floor(expLog2E*y3 + 0.5)
			r0 := y0 - k0*expLn2Hi
			r1 := y1 - k1*expLn2Hi
			r2 := y2 - k2*expLn2Hi
			r3 := y3 - k3*expLn2Hi
			r0 -= k0 * expLn2Lo
			r1 -= k1 * expLn2Lo
			r2 -= k2 * expLn2Lo
			r3 -= k3 * expLn2Lo
			z0, z1, z2, z3 := r0*r0, r1*r1, r2*r2, r3*r3
			p0 := r0 * ((expP0*z0+expP1)*z0 + expP2)
			p1 := r1 * ((expP0*z1+expP1)*z1 + expP2)
			p2 := r2 * ((expP0*z2+expP1)*z2 + expP2)
			p3 := r3 * ((expP0*z3+expP1)*z3 + expP2)
			q0 := ((expQ0*z0+expQ1)*z0+expQ2)*z0 + expQ3
			q1 := ((expQ0*z1+expQ1)*z1+expQ2)*z1 + expQ3
			q2 := ((expQ0*z2+expQ1)*z2+expQ2)*z2 + expQ3
			q3 := ((expQ0*z3+expQ1)*z3+expQ2)*z3 + expQ3
			d0, s0 := q0-p0, math.Float64frombits(uint64(int64(k0)+1023)<<52)
			d1, s1 := q1-p1, math.Float64frombits(uint64(int64(k1)+1023)<<52)
			d2, s2 := q2-p2, math.Float64frombits(uint64(int64(k2)+1023)<<52)
			d3, s3 := q3-p3, math.Float64frombits(uint64(int64(k3)+1023)<<52)
			sn0, sn1, sn2, sn3 := s0*(q0+p0), s1*(q1+p1), s2*(q2+p2), s3*(q3+p3)
			// Branchless numerator select by sign mask. At ±0 the mask
			// disagrees with sigmoid1's `x >= 0` test, but there num and
			// den are bit-identical (p = ±0 ⇒ q±p = q exactly), so either
			// selection yields the same bits.
			m0 := uint64(int64(math.Float64bits(x0)) >> 63)
			m1 := uint64(int64(math.Float64bits(x1)) >> 63)
			m2 := uint64(int64(math.Float64bits(x2)) >> 63)
			m3 := uint64(int64(math.Float64bits(x3)) >> 63)
			u0 := math.Float64frombits(math.Float64bits(d0)&^m0 | math.Float64bits(sn0)&m0)
			u1 := math.Float64frombits(math.Float64bits(d1)&^m1 | math.Float64bits(sn1)&m1)
			u2 := math.Float64frombits(math.Float64bits(d2)&^m2 | math.Float64bits(sn2)&m2)
			u3 := math.Float64frombits(math.Float64bits(d3)&^m3 | math.Float64bits(sn3)&m3)
			dst[i] = u0 / (d0 + sn0)
			dst[i+1] = u1 / (d1 + sn1)
			dst[i+2] = u2 / (d2 + sn2)
			dst[i+3] = u3 / (d3 + sn3)
			continue
		}
		dst[i] = sigmoid1(x0)
		dst[i+1] = sigmoid1(x1)
		dst[i+2] = sigmoid1(x2)
		dst[i+3] = sigmoid1(x3)
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
