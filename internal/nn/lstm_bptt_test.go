package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/f64"
)

// backwardViaTransposedWh is LSTMLayer.Backward as it stood before the
// recurrence read Wh as stored: the same statements on its own scratch,
// with dhₜ₋₁ = Whᵀ·dpreₜ taken as f64.GemvN over f64.Transpose(Wh). It
// is the definition TestLSTMBackwardMatchesTransposedRecurrence holds
// Backward to.
func backwardViaTransposedWh(l *LSTMLayer, cache *LSTMCache, dhs []float64) (dx []float64) {
	n, h := cache.n, l.H
	whT := make([]float64, h*4*h)
	f64.Transpose(whT, l.Wh.W, 4*h, h)
	dh, dc, zero := make([]float64, h), make([]float64, h), make([]float64, h)
	dhNext, dhPrev, dcNext := make([]float64, h), make([]float64, h), make([]float64, h)
	dpreAll := make([]float64, n*4*h)
	for t := n - 1; t >= 0; t-- {
		copy(dh, dhNext)
		f64.AddTo(dh, dhs[t*h:(t+1)*h])
		gb := t * 4 * h
		cand := cache.gates[gb : gb+h]
		gu := cache.gates[gb+h : gb+2*h]
		gf := cache.gates[gb+2*h : gb+3*h]
		gout := cache.gates[gb+3*h : gb+4*h]
		tc := cache.tanhCs[t*h : (t+1)*h]
		cPrev := zero
		if t > 0 {
			cPrev = cache.cs[(t-1)*h : t*h]
		}
		dpre := dpreAll[gb : gb+4*h]
		for i := 0; i < h; i++ {
			dgo := dh[i] * tc[i]
			dci := dh[i]*gout[i]*(1-tc[i]*tc[i]) + dcNext[i]
			dc[i] = dci
			dcand := dci * gu[i]
			dgu := dci * cand[i]
			dgf := dci * cPrev[i]
			dpre[i] = dcand * (1 - cand[i]*cand[i])
			dpre[h+i] = dgu * gu[i] * (1 - gu[i])
			dpre[2*h+i] = dgf * gf[i] * (1 - gf[i])
			dpre[3*h+i] = dgo * gout[i] * (1 - gout[i])
		}
		if t > 0 {
			f64.GemvN(dhPrev, whT, dpre)
		}
		dhNext, dhPrev = dhPrev, dhNext
		for i := 0; i < h; i++ {
			dcNext[i] = dc[i] * gf[i]
		}
	}
	for t := 0; t < n; t++ {
		f64.AddTo(l.B.G, dpreAll[t*4*h:(t+1)*4*h])
	}
	f64.GemmTN(l.Wx.G, dpreAll, cache.x, 4*h, l.In, n)
	if n > 1 {
		f64.GemmTN(l.Wh.G, dpreAll[4*h:], cache.hs, 4*h, h, n-1)
	}
	dx = make([]float64, n*l.In)
	f64.Gemm(dx, dpreAll, l.Wx.W, n, l.In, 4*h)
	return dx
}

// TestLSTMBackwardMatchesTransposedRecurrence holds Backward, bit for
// bit, to the recurrence it ran before f64.GemvTSeq at the hidden sizes
// the artifact goldens (Hidden 32 only) cannot see: one vector, a
// leftover column in Dot's lane order (5), narrower-than-a-tile (12),
// a full tile (32). Input gradients and all three parameter gradients
// must agree on two passes, the second accumulating onto the first.
func TestLSTMBackwardMatchesTransposedRecurrence(t *testing.T) {
	for _, h := range []int{4, 5, 12, 32} {
		for _, in := range []int{3, 16} {
			for _, n := range []int{1, 2, 37} {
				t.Run(fmt.Sprintf("H=%d/In=%d/n=%d", h, in, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*h + 10*in + n)))
					got := NewLSTMLayer("l", in, h, rng)
					want := got.CloneShared() // same weights, own gradients and scratch
					for pass := 0; pass < 2; pass++ {
						x, dhs := make([]float64, n*in), make([]float64, n*h)
						for s := 0; s < n; s++ {
							for i := range in {
								x[s*in+i] = rng.NormFloat64()
							}
							for i := range h {
								dhs[s*h+i] = rng.NormFloat64()
							}
						}
						if n > 2 {
							clear(dhs[n/2*h : (n/2+1)*h]) // a step nothing flows into from above
						}
						_, gc := got.Forward(x)
						gdx := got.Backward(gc, dhs)
						_, wc := want.Forward(x)
						wdx := backwardViaTransposedWh(want, wc, dhs)
						for s := 0; s < n; s++ {
							if g, w := gdx[s*in:(s+1)*in], wdx[s*in:(s+1)*in]; !sameBits(g, w) {
								t.Fatalf("pass %d: dx row %d = %v, transposed recurrence %v", pass, s, g, w)
							}
						}
						gp, wp := got.Params(), want.Params()
						for i := range wp {
							if !sameBits(gp[i].G, wp[i].G) {
								t.Fatalf("pass %d: %s gradient differs from the transposed recurrence", pass, wp[i].Name)
							}
						}
					}
				})
			}
		}
	}
}
