package nn

import (
	"math/rand"

	"repro/internal/f64"
)

// LSTMLayer is one LSTM layer following the formulation of Appendix
// A.2 (Zaremba & Sutskever variant):
//
//	c~ = tanh(Wc x + Uc h + bc)
//	Γu = σ(Wu x + Uu h + bu)    (input/update gate)
//	Γf = σ(Wf x + Uf h + bf)    (forget gate)
//	Γo = σ(Wo x + Uo h + bo)    (output gate)
//	c  = Γu ⊙ c~ + Γf ⊙ c_prev
//	h  = Γo ⊙ tanh(c)
//
// Gate weights are packed in order [candidate, update, forget, output].
//
// The input contribution Wx·xₜ has no sequential dependency, so
// Forward hoists it out of the recurrence: the whole sequence is
// packed into one contiguous n×In matrix and transformed in a single
// sequence-level GEMM (pre = X·Wxᵀ + b) before the timestep loop,
// which then only computes the recurrent Wh·hₜ₋₁ term and the gate
// nonlinearities. Backward mirrors this: the BPTT recurrence only
// propagates dhₜ₋₁ through Wh, while the Wx/Wh/bias gradients and the
// input gradients are accumulated afterwards as sequence-level
// matrix products over the stored per-step gate gradients.
//
// Forward/Backward reuse per-layer scratch buffers, so a layer instance
// must not be used from multiple goroutines; data-parallel training
// gives each worker its own replica via CloneShared.
type LSTMLayer struct {
	Wx, Wh, B *Param
	In, H     int

	// wxT and whT are Wx and Wh transposed (In×4h and h×4h), so the
	// input GEMM and the recurrent update run along contiguous length-4h
	// rows instead of per-gate short dots; see transposed for when they
	// are rebuilt. They are forward-only layouts: Backward reads Wx and
	// Wh as stored.
	wxT, whT []float64
	frozen   bool

	cache  LSTMCache
	bcache lstmBatchCache
}

// NewLSTMLayer allocates a layer mapping In-dim inputs to H-dim hidden
// states. The forget-gate bias starts at 1 (standard practice that
// stabilizes early training).
func NewLSTMLayer(name string, in, hidden int, rng *rand.Rand) *LSTMLayer {
	scaleX := XavierScale(in, hidden)
	scaleH := XavierScale(hidden, hidden)
	l := &LSTMLayer{
		Wx: NewParam(name+".Wx", 4*hidden*in, UniformInit(rng, scaleX)),
		Wh: NewParam(name+".Wh", 4*hidden*hidden, UniformInit(rng, scaleH)),
		B:  NewParam(name+".b", 4*hidden, nil),
		In: in, H: hidden,
	}
	for i := 2 * hidden; i < 3*hidden; i++ { // forget-gate block
		l.B.W[i] = 1
	}
	return l
}

// Params returns the layer's parameters.
func (l *LSTMLayer) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// CloneShared returns a replica sharing weights but owning private
// gradients and scratch. The replica is never frozen, whatever l is.
func (l *LSTMLayer) CloneShared() *LSTMLayer {
	return &LSTMLayer{
		Wx: l.Wx.Shadow(), Wh: l.Wh.Shadow(), B: l.B.Shadow(),
		In: l.In, H: l.H,
	}
}

// transposed returns wxT and whT. An unfrozen layer re-transposes both
// matrices on every call, because training moves the weights every
// optimizer step; a frozen one returns the copies freeze made. Either
// way the values are f64.Transpose of the current Wx and Wh, so
// freezing cannot change an activation. Only the forward passes call
// it; nothing in Backward depends on what it left in the layer.
func (l *LSTMLayer) transposed() (wxT, whT []float64) {
	if !l.frozen {
		h := l.H
		f64.Transpose(growF(&l.wxT, l.In*4*h), l.Wx.W, 4*h, l.In)
		f64.Transpose(growF(&l.whT, h*4*h), l.Wh.W, 4*h, h)
	}
	return l.wxT, l.whT
}

// freeze transposes both matrices one last time and keeps them (see
// LSTMModel.Freeze).
func (l *LSTMLayer) freeze() {
	l.transposed()
	l.frozen = true
}

// LSTMCache stores the forward activations needed by BPTT in flat
// backing arrays owned by the layer and reused across calls.
type LSTMCache struct {
	xflat []float64 // inputs packed contiguously, n*In
	n     int       // steps in the cached sequence

	// Flat per-step activations. pre is n*4h holding the gate
	// pre-activations (input GEMM + bias + recurrent term); gates is
	// n*4h with per-step layout [candidate h | update h | forget h |
	// output h]; cs/tanhCs/hs are n*h (cell states, their tanh, hidden
	// states).
	pre, gates, cs, tanhCs, hs []float64
	hsRows                     [][]float64 // row headers into hs

	// Backward scratch. dpre is n*4h: the per-step gate gradients kept
	// for the sequence-level parameter/input gradient products after
	// the recurrence. dhA/dhB swap roles as dhNext/dhPrev across
	// timesteps; zero stays all-zero (cPrev at t=0).
	dh, dc, dcNext, dhA, dhB, zero []float64 // h each
	dpre                           []float64 // n*4h
	dxsFlat                        []float64 // n*In
	dxs                            [][]float64
}

// Hidden returns the sequence of hidden states.
func (c *LSTMCache) Hidden() [][]float64 { return c.hsRows }

// ensure sizes the cache for an n-step sequence of in-dim inputs.
func (c *LSTMCache) ensure(n, h, in int) {
	c.n = n
	growF(&c.xflat, n*in)
	growF(&c.pre, n*4*h)
	growF(&c.gates, n*4*h)
	growF(&c.cs, n*h)
	growF(&c.tanhCs, n*h)
	growF(&c.hs, n*h)
	growV(&c.hsRows, n)
	for t := 0; t < n; t++ {
		c.hsRows[t] = c.hs[t*h : (t+1)*h]
	}
}

// Forward runs the layer over the input sequence, returning hidden
// states for every step and the cache for Backward. The returned
// slices are owned by the layer and valid until the next Forward call.
func (l *LSTMLayer) Forward(xs [][]float64) ([][]float64, *LSTMCache) {
	n := len(xs)
	h := l.H
	cache := &l.cache
	cache.ensure(n, h, l.In)
	x := cache.xflat
	for t, row := range xs {
		copy(x[t*l.In:(t+1)*l.In], row)
	}
	wxT, whT := l.transposed()
	// Sequence-level input GEMM, hoisted out of the recurrence:
	// pre[t] = Wx·xₜ + b for every step at once (pre = bias rows +
	// X·Wxᵀ), keeping Wx hot in cache instead of re-streaming it
	// between the gate and recurrent work of every timestep.
	for t := 0; t < n; t++ {
		copy(cache.pre[t*4*h:(t+1)*4*h], l.B.W)
	}
	f64.Gemm(cache.pre, x, wxT, n, 4*h, l.In)
	for t := 0; t < n; t++ {
		pre := cache.pre[t*4*h : (t+1)*4*h]
		if t > 0 {
			// Recurrent term: pre += Wh·hₜ₋₁ (the only matrix work left
			// inside the sequential loop), as a 1×h by h×4h product.
			f64.Gemm(pre, cache.hs[(t-1)*h:t*h], whT, 1, 4*h, h)
		}
		gb := t * 4 * h
		cand := cache.gates[gb : gb+h]
		gu := cache.gates[gb+h : gb+2*h]
		gf := cache.gates[gb+2*h : gb+3*h]
		gout := cache.gates[gb+3*h : gb+4*h]
		var cPrev []float64
		if t > 0 {
			cPrev = cache.cs[(t-1)*h : t*h]
		}
		c := cache.cs[t*h : (t+1)*h]
		tc := cache.tanhCs[t*h : (t+1)*h]
		hVec := cache.hs[t*h : (t+1)*h]
		// All four gate nonlinearities in one batched pass over the
		// contiguous 4h pre block: tanh for the candidate, then one
		// SigmoidV over the packed [update|forget|output] 3h span —
		// the same element functions the batched n-row path applies,
		// which is what keeps the two paths bit-identical.
		f64.TanhV(cand, pre[:h])
		f64.SigmoidV(cache.gates[gb+h:gb+4*h], pre[h:4*h])
		if cPrev != nil {
			for i := 0; i < h; i++ {
				c[i] = gu[i]*cand[i] + gf[i]*cPrev[i]
			}
		} else {
			for i := 0; i < h; i++ {
				c[i] = gu[i] * cand[i]
			}
		}
		f64.TanhV(tc, c)
		for i := 0; i < h; i++ {
			hVec[i] = gout[i] * tc[i]
		}
	}
	return cache.hsRows, cache
}

// Backward runs BPTT. dhs[t] is the gradient flowing into h_t from
// above (nil entries mean zero). It returns gradients with respect to
// the inputs (owned by the layer, valid until the next Backward call)
// and accumulates parameter gradients.
//
// The timestep loop only runs the true recurrence (gate gradients and
// dhₜ₋₁ = Whᵀ·dpreₜ, taken off the untransposed Wh by f64.GemvTSeq);
// every per-step gate gradient is stored, and the parameter gradients
// (dWx += dpreᵀ·X, dWh += dpre[1:]ᵀ·H[:n-1], db += Σₜ dpreₜ) and input
// gradients (dX = dpre·Wx) are computed afterwards as sequence-level
// matrix products.
func (l *LSTMLayer) Backward(cache *LSTMCache, dhs [][]float64) [][]float64 {
	n := cache.n
	h := l.H
	growF(&cache.dxsFlat, n*l.In)
	dxs := growV(&cache.dxs, n)
	dh := growF(&cache.dh, h)
	dc := growF(&cache.dc, h)
	dpreAll := growF(&cache.dpre, n*4*h)
	growF(&cache.zero, h)
	zeroF(cache.zero)
	dhNext := growF(&cache.dhA, h)
	zeroF(dhNext)
	dhPrev := growF(&cache.dhB, h)
	dcNext := growF(&cache.dcNext, h)
	zeroF(dcNext)
	for t := n - 1; t >= 0; t-- {
		copy(dh, dhNext)
		if t < len(dhs) && dhs[t] != nil {
			f64.AddTo(dh, dhs[t])
		}
		gb := t * 4 * h
		cand := cache.gates[gb : gb+h]
		gu := cache.gates[gb+h : gb+2*h]
		gf := cache.gates[gb+2*h : gb+3*h]
		gout := cache.gates[gb+3*h : gb+4*h]
		tc := cache.tanhCs[t*h : (t+1)*h]
		var cPrev []float64
		if t > 0 {
			cPrev = cache.cs[(t-1)*h : t*h]
		} else {
			cPrev = cache.zero
		}
		// Gradients through h = go * tanh(c).
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
		// The recurrence proper: dhₜ₋₁ = Whᵀ·dpreₜ on Wh as stored (4h×h,
		// its rows the contiguous columns of whT): h column sums, each
		// in increasing gate-row order — the bits GemvN gives over whT.
		if t > 0 {
			f64.GemvTSeq(dhPrev, l.Wh.W, dpre)
		}
		dhNext, dhPrev = dhPrev, dhNext
		// dcNext flows via the forget gate.
		for i := 0; i < h; i++ {
			dcNext[i] = dc[i] * gf[i]
		}
	}
	// Sequence-level parameter and input gradients over the stored
	// per-step gate gradients.
	for t := 0; t < n; t++ {
		f64.AddTo(l.B.G, dpreAll[t*4*h:(t+1)*4*h])
	}
	f64.GemmTN(l.Wx.G, dpreAll, cache.xflat, 4*h, l.In, n)
	if n > 1 {
		// dpre rows 1..n-1 pair with hidden states 0..n-2.
		f64.GemmTN(l.Wh.G, dpreAll[4*h:], cache.hs, 4*h, h, n-1)
	}
	zeroF(cache.dxsFlat)
	f64.Gemm(cache.dxsFlat, dpreAll, l.Wx.W, n, l.In, 4*h)
	for t := 0; t < n; t++ {
		dxs[t] = cache.dxsFlat[t*l.In : (t+1)*l.In]
	}
	return dxs
}

// lstmBatchCache is the inference-only scratch of ForwardBatch:
// lane-major activations sized by the largest batch seen, reused
// across calls and never retained for Backward.
type lstmBatchCache struct {
	pre        []float64 // current step: w×h candidate block, then w×3h gate block
	hs         []float64 // T blocks of widths[t]×h hidden states
	cA, cB, tc []float64 // w×h cell-state double buffer and tanh scratch
}

// ForwardBatch runs the layer over an n-example batch packed
// lane-major, one block per timestep holding only the lanes still
// running at that step: block t is a widths[t]×In matrix, lane r's
// input at x[In·(off(t)+r) : In·(off(t)+r+1)], where off(t) =
// widths[0] + … + widths[t−1]. It returns the hidden states in the
// same layout (block t is widths[t]×h at h·off(t)), owned by the layer
// and valid until the next ForwardBatch call. There are len(widths)
// steps; widths must be positive and non-increasing (callers sort
// lanes longest first). A ragged batch therefore costs exactly the
// sum of its lane lengths, and a lane that ends simply drops off the
// end of the next block: nothing is padded, repacked or recomputed,
// and a narrow step runs the same code as a full one.
//
// Per step the running lanes' gate pre-activations are Forward's own
// products with w rows instead of one — Pre = 1·bᵀ + Xₜ·Wxᵀ + Hₜ₋₁·Whᵀ
// against the same transposed weights (see transposed: rebuilt per call
// on a trainable layer, kept on a frozen one) — written as two column
// blocks so each nonlinearity is one call over contiguous memory: the
// w×h candidates (TanhV) and the w×3h [update|forget|output] gates
// (SigmoidV).
//
// Bit-identity with Forward: lane r's row of every product multiplies
// the same float pairs in the same order as Forward's sequence-level
// input GEMM and per-step recurrent GEMM do for example r (bias, then
// Wx terms in increasing input index four at a time, then Wh terms
// likewise; a GEMM's per-element order does not depend on how many
// rows or which columns it computes), and the nonlinearities are the
// same element functions. Lanes never mix, so lane r of every block
// equals the scalar path on example r bit-for-bit whatever the widths.
//
// Inference only: no cache is retained for Backward.
func (l *LSTMLayer) ForwardBatch(x []float64, widths []int) []float64 {
	h, in := l.H, l.In
	n, total := 0, 0 // widest step; lanes over all steps
	for _, w := range widths {
		n = max(n, w)
		total += w
	}
	bc := &l.bcache
	wxT, whT := l.transposed()
	pre := growF(&bc.pre, n*4*h)
	hs := growF(&bc.hs, total*h)
	cPrev := growF(&bc.cA, n*h)
	cCur := growF(&bc.cB, n*h)
	tcBuf := growF(&bc.tc, n*h)
	off, wPrev := 0, 0 // lanes in the blocks before step t; step t−1's width
	for t, w := range widths {
		cand, gates := pre[:w*h], pre[w*h:w*4*h]
		for r := 0; r < w; r++ {
			copy(cand[r*h:(r+1)*h], l.B.W[:h])
			copy(gates[r*3*h:(r+1)*3*h], l.B.W[h:])
		}
		xt := x[in*off : in*(off+w)]
		f64.GemmSW(cand, h, xt, in, wxT, 4*h, w, h, in)
		f64.GemmSW(gates, 3*h, xt, in, wxT[h:], 4*h, w, 3*h, in)
		if t > 0 {
			hPrev := hs[h*(off-wPrev) : h*(off-wPrev+w)]
			f64.GemmSW(cand, h, hPrev, h, whT, 4*h, w, h, h)
			f64.GemmSW(gates, 3*h, hPrev, h, whT[h:], 4*h, w, 3*h, h)
		}
		f64.TanhV(cand, cand)
		f64.SigmoidV(gates, gates)
		c := cCur[:w*h]
		for r := 0; r < w; r++ {
			cr, candr := c[r*h:(r+1)*h], cand[r*h:(r+1)*h]
			gu, gf := gates[r*3*h:r*3*h+h], gates[r*3*h+h:r*3*h+2*h]
			if t == 0 {
				for i := range cr {
					cr[i] = gu[i] * candr[i]
				}
			} else {
				cp := cPrev[r*h : (r+1)*h]
				for i := range cr {
					cr[i] = gu[i]*candr[i] + gf[i]*cp[i]
				}
			}
		}
		tc := tcBuf[:w*h]
		f64.TanhV(tc, c)
		ht := hs[h*off : h*(off+w)]
		for r := 0; r < w; r++ {
			hr, tcr := ht[r*h:(r+1)*h], tc[r*h:(r+1)*h]
			gout := gates[r*3*h+2*h : (r+1)*3*h]
			for i := range hr {
				hr[i] = gout[i] * tcr[i]
			}
		}
		cPrev, cCur = cCur, cPrev
		off += w
		wPrev = w
	}
	return hs
}
