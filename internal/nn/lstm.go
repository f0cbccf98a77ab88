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
// GEMM (pre = X·Wxᵀ + b) before the timestep loop. What is left of a
// timestep — the recurrent Wh·hₜ₋₁ term, the gate nonlinearities, the
// cell and hidden state — is one function, step, over any number of
// rows: Forward runs it on one row per timestep, ForwardBatch on one
// row per node of a batch's prefix tree. Backward mirrors the hoisting:
// the BPTT recurrence only propagates dhₜ₋₁ through Wh, while the
// Wx/Wh/bias gradients and the input gradients are accumulated
// afterwards as sequence-level matrix products over the stored
// per-step gate gradients.
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

// tabulate replaces the frozen layer's wxT by the table forward and
// ForwardBatch read when the layer's inputs are rows of e: row v is
// what Forward's input GEMM leaves in a step's row of gates when the
// step's input is token v's embedding — the bias, then the Wx terms —
// because the same statements compute it, with the vocabulary as the
// sequence. The recurrent product is added on top of that row either
// way, so reading it back changes no bit (a −0 bias included: the row
// starts as a copy).
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

	// Flat per-step activations. gates is n*4h with per-step layout
	// [candidate h | update h | forget h | output h]: a step's gate
	// pre-activations (input GEMM + bias, then the recurrent term) until
	// step overwrites them in place with the activations Backward reads;
	// cs/tanhCs/hs are n*h (cell states, their tanh, hidden states).
	gates, cs, tanhCs, hs []float64

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
	return l.forward(x, nil)
}

// forward is Forward, or on a tabled layer (see tabulate) Forward over
// the embeddings of ids, x unused: each step's gates then start as a
// copy of its token's table row where Forward computes that row. An id
// outside the vocabulary reads as token 0, as Embedding.Forward reads
// it.
func (l *LSTMLayer) forward(x []float64, ids []int) ([]float64, *LSTMCache) {
	h := l.H
	n := len(x) / l.In
	if l.table != nil {
		n = len(ids)
	}
	cache := &l.cache
	cache.ensure(n, h)
	cache.x = x
	wxT, whT := l.transposed()
	if l.table != nil {
		vocab := len(l.table) / (4 * h)
		for t, id := range ids {
			if id < 0 || id >= vocab {
				id = 0
			}
			copy(cache.gates[t*4*h:(t+1)*4*h], l.table[id*4*h:(id+1)*4*h])
		}
	} else {
		// Sequence-level input GEMM, hoisted out of the recurrence:
		// gates[t] = Wx·xₜ + b for every step at once (bias rows +
		// X·Wxᵀ), keeping Wx hot in cache instead of re-streaming it
		// between the gate and recurrent work of every timestep.
		for t := 0; t < n; t++ {
			copy(cache.gates[t*4*h:(t+1)*4*h], l.B.W)
		}
		f64.Gemm(cache.gates, x, wxT, n, 4*h, l.In)
	}
	for t := 0; t < n; t++ {
		var hPrev, cPrev []float64
		if t > 0 {
			hPrev, cPrev = cache.hs[(t-1)*h:t*h], cache.cs[(t-1)*h:t*h]
		}
		g := cache.gates[t*4*h : (t+1)*4*h]
		l.step(g[:h], g[h:], hPrev, cPrev, cache.cs[t*h:(t+1)*h], cache.tanhCs[t*h:(t+1)*h], cache.hs[t*h:(t+1)*h], 1, whT)
	}
	return cache.hs, cache
}

// step advances w rows by one timestep. On entry cand (w×h) and gates
// (w×3h, each row [update|forget|output]) hold every row's b + Wx·x;
// step adds the recurrent term Hₜ₋₁·Whᵀ, as two column blocks of one
// product against whT, and applies the nonlinearities in place — one
// TanhV over the candidates, one SigmoidV over the gates — so that on
// return they hold the activations. hPrev and cPrev (w×h) are each
// row's previous hidden and cell state, both nil at a sequence's first
// step; c, tc and hs (w×h) receive the cell state c = Γu⊙c~ + Γf⊙cₜ₋₁,
// its tanh and the hidden state Γo⊙tanh(c).
//
// Forward runs it on one row per timestep, where cand and gates are
// that step's contiguous 4h row of LSTMCache.gates — the layout
// Backward reads — and ForwardBatch on one row per node of a trie block.
// A row's values do not depend on w: a GEMM element multiplies the same
// float pairs in the same order however many rows or which columns one
// call computes (bias, then the Wx terms four at a time, then the Wh
// terms likewise), the nonlinearities are element functions, and the
// cell update is per element. So every row equals the one-row step of
// the same inputs bit for bit.
func (l *LSTMLayer) step(cand, gates, hPrev, cPrev, c, tc, hs []float64, w int, whT []float64) {
	h := l.H
	if hPrev != nil {
		f64.GemmSW(cand, h, hPrev, h, whT, 4*h, w, h, h)
		f64.GemmSW(gates, 3*h, hPrev, h, whT[h:], 4*h, w, 3*h, h)
	}
	f64.TanhV(cand, cand)
	f64.SigmoidV(gates, gates)
	for r := 0; r < w; r++ {
		// Every row is cut [:h], so the loops below index check-free.
		cr, candr := c[r*h:][:h], cand[r*h:][:h]
		gu, gf := gates[r*3*h:][:h], gates[r*3*h+h:][:h]
		if cPrev == nil {
			for i := range cr {
				cr[i] = gu[i] * candr[i]
			}
		} else {
			cp := cPrev[r*h:][:h]
			for i := range cr {
				cr[i] = gu[i]*candr[i] + gf[i]*cp[i]
			}
		}
	}
	f64.TanhV(tc, c)
	for r := 0; r < w; r++ {
		hr, tcr := hs[r*h:][:h], tc[r*h:][:h]
		gout := gates[r*3*h+2*h:][:h]
		for i := range hr {
			hr[i] = gout[i] * tcr[i]
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
	pre          []float64 // current step: w×h candidate block, then w×3h gate block
	hs           []float64 // one widths[t]×h block of hidden states per step
	hPrev, cPrev []float64 // w×h: the current block's parents' hidden and cell states, gathered
	c, tc        []float64 // w×h: the current block's cell states and their tanh
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
// Per block the nodes' b + Wx·x rows are Forward's input GEMM with w
// rows (read from the table where there is one), written as step's two
// column blocks — the w×h candidates and the w×3h gates — against the
// same transposed weights (see transposed: rebuilt per call on a
// trainable layer, kept on a frozen one). Row r's parent's hidden and
// cell state are then copied next to its siblings', so that step's
// recurrent product has one contiguous operand, and step advances the
// whole block. A node's row is therefore the one-row step Forward runs
// at that step of any example through the node (see step), and rows
// never mix: every node equals the scalar path on its prefix bit for
// bit whatever else the batch holds.
//
// Inference only: no cache is retained for Backward.
func (l *LSTMLayer) ForwardBatch(x []float64, tr *lstmTrie) []float64 {
	h, in := l.H, l.In
	n := slices.Max(tr.widths) // widest block
	bc := &l.bcache
	wxT, whT := l.transposed()
	pre := growF(&bc.pre, n*4*h)
	hs := growF(&bc.hs, len(tr.tok)*h)
	hPrev, cPrev := growF(&bc.hPrev, n*h), growF(&bc.cPrev, n*h)
	c, tc := growF(&bc.c, n*h), growF(&bc.tc, n*h)
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
		var hp, cp []float64
		if t > 0 {
			// c still holds block t−1's cell states: gathered before step
			// overwrites it.
			for r, p := range tr.parent[off : off+w] {
				copy(hPrev[r*h:(r+1)*h], hs[p*h:(p+1)*h])
				copy(cPrev[r*h:(r+1)*h], c[(p-offPrev)*h:(p-offPrev+1)*h])
			}
			hp, cp = hPrev[:w*h], cPrev[:w*h]
		}
		l.step(cand, gates, hp, cp, c[:w*h], tc[:w*h], hs[h*off:h*(off+w)], w, whT)
		offPrev, off = off, off+w
	}
	return hs
}
