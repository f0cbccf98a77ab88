package nn

import (
	"math/rand"
	"slices"

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
// Forward hoists it out of the recurrence: the whole sequence, one
// n×In row-major matrix, is transformed in a single sequence-level
// GEMM (pre = X·Wxᵀ + b) before the timestep loop, which then only
// computes the recurrent Wh·hₜ₋₁ term and the gate
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
	// table replaces wxT on a frozen first layer whose inputs are token
	// embeddings (see tabulate): row v is b + Wx·E[v], 4h values.
	table []float64

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

// tabulate replaces the frozen layer's wxT by the table forwardTabled
// and ForwardBatch read when the layer's inputs are rows of e: row v is
// what Forward's input GEMM leaves in pre for a step whose input is
// token v's embedding — the bias, then the Wx terms — because the same
// statements compute it, with the vocabulary as the sequence. The
// recurrent product is added on top of that row either way, so reading
// it back changes no bit (a −0 bias included: the row starts as a copy).
func (l *LSTMLayer) tabulate(e *Embedding) {
	h := l.H
	t := make([]float64, e.V*4*h)
	for v := 0; v < e.V; v++ {
		copy(t[v*4*h:(v+1)*4*h], l.B.W)
	}
	f64.Gemm(t, e.P.W, l.wxT, e.V, 4*h, l.In)
	l.table, l.wxT = t, nil
}

// LSTMCache stores the forward activations needed by BPTT in flat
// backing arrays owned by the layer and reused across calls.
type LSTMCache struct {
	x []float64 // the n×In input Forward was given (not a copy); nil when tabled
	n int       // steps in the cached sequence

	// Flat per-step activations. pre is n*4h holding the gate
	// pre-activations (input GEMM + bias + recurrent term); gates is
	// n*4h with per-step layout [candidate h | update h | forget h |
	// output h]; cs/tanhCs/hs are n*h (cell states, their tanh, hidden
	// states).
	pre, gates, cs, tanhCs, hs []float64

	// Backward scratch. dpre is n*4h: the per-step gate gradients kept
	// for the sequence-level parameter/input gradient products after
	// the recurrence. dhA/dhB swap roles as dhNext/dhPrev across
	// timesteps; zero stays all-zero (cPrev at t=0).
	dh, dc, dcNext, dhA, dhB, zero []float64 // h each
	dpre                           []float64 // n*4h
	dx                             []float64 // n*In
}

// ensure sizes the cache for an n-step sequence.
func (c *LSTMCache) ensure(n, h int) {
	c.n = n
	growF(&c.pre, n*4*h)
	growF(&c.gates, n*4*h)
	growF(&c.cs, n*h)
	growF(&c.tanhCs, n*h)
	growF(&c.hs, n*h)
}

// Forward runs the layer over x, an n×In row-major sequence, returning
// the hidden states of every step (n×H row-major) and the cache for
// Backward. The returned slices are owned by the layer and valid until
// the next Forward call. The cache keeps x itself for Backward, so x
// must stay unchanged until then.
func (l *LSTMLayer) Forward(x []float64) ([]float64, *LSTMCache) {
	n := len(x) / l.In
	h := l.H
	cache := &l.cache
	cache.ensure(n, h)
	cache.x = x
	wxT, whT := l.transposed()
	// Sequence-level input GEMM, hoisted out of the recurrence:
	// pre[t] = Wx·xₜ + b for every step at once (pre = bias rows +
	// X·Wxᵀ), keeping Wx hot in cache instead of re-streaming it
	// between the gate and recurrent work of every timestep.
	for t := 0; t < n; t++ {
		copy(cache.pre[t*4*h:(t+1)*4*h], l.B.W)
	}
	f64.Gemm(cache.pre, x, wxT, n, 4*h, l.In)
	l.recur(n, whT)
	return cache.hs, cache
}

// forwardTabled is Forward on a tabled layer (see tabulate) over the
// embeddings of ids: each step's pre starts as a copy of its token's
// table row where Forward computes that row. An id outside the
// vocabulary reads as token 0, as Embedding.Forward reads it.
func (l *LSTMLayer) forwardTabled(ids []int) ([]float64, *LSTMCache) {
	n := len(ids)
	h := l.H
	cache := &l.cache
	cache.ensure(n, h)
	cache.x = nil
	vocab := len(l.table) / (4 * h)
	for t, id := range ids {
		if id < 0 || id >= vocab {
			id = 0
		}
		copy(cache.pre[t*4*h:(t+1)*4*h], l.table[id*4*h:(id+1)*4*h])
	}
	l.recur(n, l.whT)
	return cache.hs, cache
}

// recur runs the timestep loop over the n rows of cache.pre, which hold
// b + Wx·xₜ on entry.
func (l *LSTMLayer) recur(n int, whT []float64) {
	h := l.H
	cache := &l.cache
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
}

// Backward runs BPTT. dhs is n×H row-major: row t is the gradient
// flowing into h_t from above. It returns the gradient with respect to
// the inputs, n×In row-major (owned by the layer, valid until the next
// Backward call), and accumulates parameter gradients.
//
// The timestep loop only runs the true recurrence (gate gradients and
// dhₜ₋₁ = Whᵀ·dpreₜ, taken off the untransposed Wh by f64.GemvTSeq);
// every per-step gate gradient is stored, and the parameter gradients
// (dWx += dpreᵀ·X, dWh += dpre[1:]ᵀ·H[:n-1], db += Σₜ dpreₜ) and input
// gradients (dX = dpre·Wx) are computed afterwards as sequence-level
// matrix products.
func (l *LSTMLayer) Backward(cache *LSTMCache, dhs []float64) []float64 {
	n := cache.n
	h := l.H
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
		f64.AddTo(dh, dhs[t*h:(t+1)*h])
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
	f64.GemmTN(l.Wx.G, dpreAll, cache.x, 4*h, l.In, n)
	if n > 1 {
		// dpre rows 1..n-1 pair with hidden states 0..n-2.
		f64.GemmTN(l.Wh.G, dpreAll[4*h:], cache.hs, 4*h, h, n-1)
	}
	dx := growF(&cache.dx, n*l.In)
	zeroF(dx)
	f64.Gemm(dx, dpreAll, l.Wx.W, n, l.In, 4*h)
	return dx
}

// lstmTrie is the layout of one batch: the prefix tree of its token
// sequences. Every function the stacked layers compute at step t is a
// function of the tokens up to t alone, so lanes that share a prefix
// share those values, and the batched path computes them once: it runs
// one row per node — per distinct prefix — where a lane-per-row layout
// runs one per lane-step. A duplicate statement, a statement that is a
// proper prefix of another and two that part at step 0 are all just
// shapes of the tree, and a batch costs its node count.
//
// Nodes are stored block after block by depth: block t holds the
// widths[t] distinct prefixes of length t+1, in the lexicographic order
// of the lanes through them, so a node's children are adjacent and
// parents are non-decreasing along a block.
type lstmTrie struct {
	widths []int // widths[t]: nodes at depth t, every one positive
	tok    []int // per node: the token that ends its prefix, clamped to the vocabulary
	parent []int // per node: its parent, an index into tok (block t−1); 0 in block 0
	end    []int // per lane, in request order: the node its sequence ends in

	// build's scratch: the lanes' clamped tokens back to back (lane r is
	// seq[off[r]:off[r+1]]), the lanes in lexicographic order, each one's
	// common-prefix length with its predecessor there, and per depth the
	// next free node and the node of the lane in hand.
	seq, off, order, lcp, next, path []int
}

// build lays out the batch ids over a vocabulary of vocab tokens. An id
// outside it reads as token 0 and an empty sequence as the one token 0,
// as on the scalar path, and both share nodes accordingly. Sorted
// lexicographically, the lanes through any one node are adjacent, so
// whatever a lane shares with any earlier lane it shares with its
// predecessor: its first lcp nodes are the predecessor's, and it opens
// a new node at every depth from lcp on.
func (tr *lstmTrie) build(ids [][]int, vocab int) {
	n := len(ids)
	off := growI(&tr.off, n+1)
	total, depth := 0, 0
	for r, s := range ids {
		off[r] = total
		l := max(len(s), 1)
		total += l
		depth = max(depth, l)
	}
	off[n] = total
	seq := growI(&tr.seq, total)
	for r, s := range ids {
		lane := seq[off[r]:off[r+1]]
		lane[0] = 0
		for i, id := range s {
			if id < 0 || id >= vocab {
				id = 0
			}
			lane[i] = id
		}
	}
	order := growI(&tr.order, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(seq[off[a]:off[a+1]], seq[off[b]:off[b+1]])
	})
	lcp := growI(&tr.lcp, n)
	widths := growI(&tr.widths, depth)
	clear(widths)
	var prev []int
	for k, r := range order {
		lane := seq[off[r]:off[r+1]]
		c := 0
		for c < len(prev) && c < len(lane) && prev[c] == lane[c] {
			c++
		}
		lcp[k] = c
		for t := c; t < len(lane); t++ {
			widths[t]++
		}
		prev = lane
	}
	next := growI(&tr.next, depth)
	nodes := 0
	for t, w := range widths {
		next[t] = nodes
		nodes += w
	}
	tok, parent := growI(&tr.tok, nodes), growI(&tr.parent, nodes)
	end := growI(&tr.end, n)
	path := growI(&tr.path, depth)
	for k, r := range order {
		lane := seq[off[r]:off[r+1]]
		for t := lcp[k]; t < len(lane); t++ {
			node := next[t]
			next[t]++
			tok[node], parent[node] = lane[t], 0
			if t > 0 {
				parent[node] = path[t-1]
			}
			path[t] = node
		}
		end[r] = path[len(lane)-1]
	}
}

// lstmBatchCache is the inference-only scratch of ForwardBatch: node-
// major activations sized by the largest batch seen, reused across
// calls and never retained for Backward.
type lstmBatchCache struct {
	pre        []float64 // current step: w×h candidate block, then w×3h gate block
	hs         []float64 // one widths[t]×h block of hidden states per step
	hPrev      []float64 // w×h: the current block's parents' hidden states, gathered
	cA, cB, tc []float64 // w×h cell-state double buffer and tanh scratch
}

// ForwardBatch runs the layer over a batch laid out as tr: one row per
// node, block after block — block t of x is a widths[t]×In matrix whose
// row r is the input at the node tr.tok[off(t)+r] names, off(t) =
// widths[0] + … + widths[t−1]. It returns the hidden states in the same
// layout (block t is widths[t]×h at h·off(t)), owned by the layer and
// valid until the next ForwardBatch call. A batch therefore costs its
// distinct prefixes; nothing is padded or recomputed, and a narrow
// block runs the same code as a wide one. A tabled layer (see tabulate)
// takes its inputs from tr.tok and ignores x.
//
// Per step the nodes' gate pre-activations are Forward's own products
// with w rows instead of one — Pre = 1·bᵀ + Xₜ·Wxᵀ + Hₜ₋₁·Whᵀ against the
// same transposed weights (see transposed: rebuilt per call on a
// trainable layer, kept on a frozen one), the first two terms read from
// the table where there is one — written as two column blocks so each
// nonlinearity is one call over contiguous memory: the w×h candidates
// (TanhV) and the w×3h [update|forget|output] gates (SigmoidV). Row r
// of Hₜ₋₁ is the hidden state of r's parent, copied next to its
// siblings' so the recurrent product has one contiguous operand; the
// parent's cell state is read where it lies.
//
// Bit-identity with Forward: a node's row of every product multiplies
// the same float pairs in the same order as Forward's sequence-level
// input GEMM and per-step recurrent GEMM do at that step of any example
// through the node (bias, then Wx terms in increasing input index four
// at a time, then Wh terms likewise; a GEMM's per-element order does
// not depend on how many rows or which columns it computes), and the
// nonlinearities are the same element functions. Rows never mix, so
// every node equals the scalar path on its prefix bit for bit whatever
// else the batch holds.
//
// Inference only: no cache is retained for Backward.
func (l *LSTMLayer) ForwardBatch(x []float64, tr *lstmTrie) []float64 {
	h, in := l.H, l.In
	n := slices.Max(tr.widths) // widest block
	bc := &l.bcache
	wxT, whT := l.transposed()
	pre := growF(&bc.pre, n*4*h)
	hs := growF(&bc.hs, len(tr.tok)*h)
	hPrev := growF(&bc.hPrev, n*h)
	cPrev := growF(&bc.cA, n*h)
	cCur := growF(&bc.cB, n*h)
	tcBuf := growF(&bc.tc, n*h)
	off, offPrev := 0, 0 // first node of block t and of block t−1
	for t, w := range tr.widths {
		cand, gates := pre[:w*h], pre[w*h:w*4*h]
		if l.table != nil {
			for r, v := range tr.tok[off : off+w] {
				row := l.table[v*4*h : (v+1)*4*h]
				copy(cand[r*h:(r+1)*h], row[:h])
				copy(gates[r*3*h:(r+1)*3*h], row[h:])
			}
		} else {
			for r := 0; r < w; r++ {
				copy(cand[r*h:(r+1)*h], l.B.W[:h])
				copy(gates[r*3*h:(r+1)*3*h], l.B.W[h:])
			}
			xt := x[in*off : in*(off+w)]
			f64.GemmSW(cand, h, xt, in, wxT, 4*h, w, h, in)
			f64.GemmSW(gates, 3*h, xt, in, wxT[h:], 4*h, w, 3*h, in)
		}
		parents := tr.parent[off : off+w]
		if t > 0 {
			for r, p := range parents {
				copy(hPrev[r*h:(r+1)*h], hs[p*h:(p+1)*h])
			}
			f64.GemmSW(cand, h, hPrev, h, whT, 4*h, w, h, h)
			f64.GemmSW(gates, 3*h, hPrev, h, whT[h:], 4*h, w, 3*h, h)
		}
		f64.TanhV(cand, cand)
		f64.SigmoidV(gates, gates)
		c := cCur[:w*h]
		for r := 0; r < w; r++ {
			// Every row is cut [:h], so the loops below index check-free.
			cr, candr := c[r*h:][:h], cand[r*h:][:h]
			gu, gf := gates[r*3*h:][:h], gates[r*3*h+h:][:h]
			if t == 0 {
				for i := range cr {
					cr[i] = gu[i] * candr[i]
				}
			} else {
				cp := cPrev[(parents[r]-offPrev)*h:][:h]
				for i := range cr {
					cr[i] = gu[i]*candr[i] + gf[i]*cp[i]
				}
			}
		}
		tc := tcBuf[:w*h]
		f64.TanhV(tc, c)
		ht := hs[h*off : h*(off+w)]
		for r := 0; r < w; r++ {
			hr, tcr := ht[r*h:][:h], tc[r*h:][:h]
			gout := gates[r*3*h+2*h:][:h]
			for i := range hr {
				hr[i] = gout[i] * tcr[i]
			}
		}
		cPrev, cCur = cCur, cPrev
		offPrev, off = off, off+w
	}
	return hs
}
