package nn

import (
	"math"
	"math/rand"

	"repro/internal/f64"
)

// Conv1D is one bank of K convolution kernels of a fixed window width
// over a sequence of d-dimensional token embeddings, followed by ReLU
// and max-over-time pooling (Section 5.3 / Figure 11). Each kernel k
// produces pooled[k] = max_j relu(w_k · x_{j:j+m-1} + b_k).
//
// Forward/Backward reuse per-layer scratch buffers; use CloneShared to
// obtain independent replicas for concurrent workers.
//
// A frozen bank keeps exactly one layout derived from its weights: the
// transposed bank wT, or — on a tabled model, see CNNModel.Freeze — the
// table built from it, in which case only poolTable may run: Forward
// and ForwardBatch need the wT a tabled bank gave up, and panic.
type Conv1D struct {
	W, B  *Param
	Width int // window size m
	In    int // embedding dimension d
	K     int // number of kernels

	// wT is the kernel bank transposed to wlen×K, the layout score's
	// GEMM reads; see transposed for when it is rebuilt.
	wT     []float64
	frozen bool
	// table holds, on a tabled bank, every 4-term block sum score's GEMM
	// could form: V·Width·(In/4) rows of K; see tabulate.
	table []float64

	cache  ConvCache
	bcache convBatchCache
	pooled []float64
}

// NewConv1D allocates a kernel bank.
func NewConv1D(name string, width, in, k int, rng *rand.Rand) *Conv1D {
	scale := XavierScale(width*in, k)
	return &Conv1D{
		W:     NewParam(name+".W", k*width*in, UniformInit(rng, scale)),
		B:     NewParam(name+".b", k, nil),
		Width: width, In: in, K: k,
	}
}

// Params returns the layer's parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// CloneShared returns a replica sharing weights but owning private
// gradients and scratch. The replica is never frozen, whatever c is.
func (c *Conv1D) CloneShared() *Conv1D {
	return &Conv1D{
		W: c.W.Shadow(), B: c.B.Shadow(),
		Width: c.Width, In: c.In, K: c.K,
	}
}

// transposed returns the kernel bank as score wants it, wlen×K. An
// unfrozen layer re-transposes W on every call, because training moves
// the weights every optimizer step; a frozen one returns the copy
// freeze made. Either way the values are f64.Transpose of the current
// W, so freezing cannot change a score.
func (c *Conv1D) transposed() []float64 {
	if !c.frozen {
		wlen := c.Width * c.In
		f64.Transpose(growF(&c.wT, wlen*c.K), c.W.W, c.K, wlen)
	}
	return c.wT
}

// freeze transposes the bank one last time and keeps it (see
// CNNModel.Freeze).
func (c *Conv1D) freeze() {
	c.transposed()
	c.frozen = true
}

// tableLen is the number of table elements the bank would need for a
// vocabulary of vocab tokens, or ok == false where it cannot have a
// table: a block of four GEMM terms must lie inside one token's
// embedding, i.e. In must be a multiple of 4.
func (c *Conv1D) tableLen(vocab int) (n int, ok bool) {
	if c.In < 4 || c.In%4 != 0 {
		return 0, false
	}
	return vocab * c.Width * (c.In / 4) * c.K, true
}

// tabulate replaces the frozen bank's wT by the table poolTable reads:
// for token v, window offset j < Width and block b < In/4, the K-wide
// row (v·Width + j)·(In/4) + b holds
//
//	((e₀·w₀ + e₁·w₁) + e₂·w₂) + e₃·w₃
//
// over components 4b…4b+3 of v's embedding and rows j·In+4b…+3 of wT —
// the term score's GEMM adds to a window's sum for that block, in that
// expression, because GemmSW computes it: per (j, b) one product of the
// tokens' four embedding components with the four rows of wT, into a
// table prefilled with −0 ((−0) + t is t for every t, a −0 included; +0
// would turn a −0 term into +0). Eight tokens go at a time, so that the
// prefill and the Width·In/4 products over it meet in the L1 cache.
func (c *Conv1D) tabulate(e *Embedding) {
	rows := c.In / 4
	n, _ := c.tableLen(e.V)
	t := make([]float64, n)
	negZero := math.Copysign(0, -1)
	perToken := c.Width * rows * c.K
	const chunk = 8
	for v := 0; v < e.V; v += chunk {
		m := min(chunk, e.V-v)
		blk := t[v*perToken : (v+m)*perToken]
		for i := range blk {
			blk[i] = negZero
		}
		for j := 0; j < c.Width; j++ {
			for b := 0; b < rows; b++ {
				l := j*c.In + 4*b // first of the block's four GEMM terms
				f64.GemmSW(blk[(j*rows+b)*c.K:], perToken, e.P.W[v*c.In+4*b:], c.In, c.wT[l*c.K:], c.K, m, c.K, 4)
			}
		}
	}
	c.table, c.wT = t, nil
}

// poolTable is score and pool on a tabled bank, straight from the token
// ids (already clamped to the vocabulary): per window the bias, then
// the table row of every (offset, block) in increasing order — the
// chain score's GEMM runs, its multiply-adds done once, in tabulate —
// and the strict-> maximum from +0 over the windows in increasing
// position, which is pool. A sequence shorter than Width is one window
// truncated to its length, as in score.
func (c *Conv1D) poolTable(pooled []float64, ids []int) {
	width := c.Width
	if len(ids) < width {
		width = len(ids)
	}
	f64.WindowSumMax(pooled, c.B.W, c.table, ids, c.K, c.In/4, width, c.Width)
}

// ConvCache stores the forward state needed by Backward, in buffers
// owned by the layer and reused across calls.
type ConvCache struct {
	x      []float64 // the n×In input Forward was given (not a copy)
	n      int       // sequence length of the cached forward pass
	argmax []int     // winning window start per kernel (-1: all <= 0)
	pre    []float64 // pre-ReLU activation at the winning position

	// Scoring scratch: the positions×K pre-activation matrix.
	scores []float64

	// Backward scratch: dL/dx, n×In.
	dx []float64
}

// convBatchCache is the inference-only scratch of ForwardBatch, kept
// separate from ConvCache so batched serving never disturbs a training
// pass's cached activations.
type convBatchCache struct {
	scores []float64
}

// score fills scores (positions×K) with the pre-ReLU activations of
// every (window, kernel) pair: scores[j,k] = b_k + w_k · x_{j:j+m-1}.
// The rows are prefilled with the biases and the windows are scored as
// ONE strided GEMM — overlapping windows of the packed input act as
// matrix rows via GemmS's explicit row stride (copy-free im2col), with
// wT the kernel bank transposed to wlen×K. Only the zero-padded case
// (n < Width, a single truncated window) shortens the shared
// dimension. The per-element accumulation chain — bias first, then
// window·kernel terms in increasing feature order, four at a time — is
// a pure function of the shapes, so the scalar and batched paths score
// bit-identically.
func (c *Conv1D) score(scores, x []float64, n, positions int, wT []float64) {
	for j := 0; j < positions; j++ {
		copy(scores[j*c.K:(j+1)*c.K], c.B.W)
	}
	wlen := c.Width * c.In
	if n >= c.Width {
		f64.GemmS(scores, x, c.In, wT, positions, c.K, wlen)
	} else {
		f64.GemmS(scores, x, c.In, wT, 1, c.K, n*c.In)
	}
}

// pool writes max-over-time ReLU pooling of scores (positions×K) into
// pooled, returning the winning window start per kernel in argmax when
// non-nil (-1 when every window is ≤ 0) and the winning pre-activation
// in pre. It is one pass over the rows of scores, every kernel's
// running maximum advancing together: each kernel still sees its
// positions in increasing order and moves only on a strict >, so the
// first maximum wins and a NaN never does.
func (c *Conv1D) pool(pooled, scores []float64, positions int, argmax []int, pre []float64) {
	pooled = pooled[:c.K]
	zeroF(pooled) // ReLU(max) == max(0, max_j pre_j)
	for k := range argmax {
		argmax[k] = -1
	}
	for j := 0; j < positions; j++ {
		for k, sum := range scores[j*c.K : (j+1)*c.K] {
			if sum > pooled[k] {
				pooled[k] = sum
				if argmax != nil {
					argmax[k] = j
				}
			}
		}
	}
	copy(pre, pooled)
}

// Forward computes the pooled feature vector of x, an n×In row-major
// sequence. Sequences shorter than the window are implicitly
// zero-padded on the right. The returned slice is owned by the layer
// and valid until the next Forward call. The cache keeps x itself for
// Backward, so x must stay unchanged until then.
//
// All windows are scored in a single strided GEMM (see score) against
// the transposed bank (see transposed) before the max/ReLU scan.
func (c *Conv1D) Forward(x []float64) ([]float64, *ConvCache) {
	n := len(x) / c.In
	positions := n - c.Width + 1
	if positions < 1 {
		positions = 1
	}
	pooled := growF(&c.pooled, c.K)
	cache := &c.cache
	cache.x, cache.n = x, n
	growI(&cache.argmax, c.K)
	growF(&cache.pre, c.K)
	scores := growF(&cache.scores, positions*c.K)
	c.score(scores, x, n, positions, c.transposed())
	c.pool(pooled, scores, positions, cache.argmax, cache.pre)
	return pooled, cache
}

// ForwardBatch pools every example of a packed batch: example r is the
// lens[r]×In embedding block at xb[offs[r]:], and its K pooled features
// are written to out[r*stride+col : r*stride+col+K] — stride/col place
// the bank's slice inside a row of concatenated bank outputs. Row r is
// bit-identical to Forward on the same example (identical score and
// pool chains, against the same transposed bank — see transposed).
// Inference only: nothing is cached for Backward, and the scratch is
// private to the layer replica.
func (c *Conv1D) ForwardBatch(xb []float64, offs, lens []int, out []float64, stride, col int) {
	wT := c.transposed()
	maxPos := 1
	for _, n := range lens {
		if p := n - c.Width + 1; p > maxPos {
			maxPos = p
		}
	}
	scores := growF(&c.bcache.scores, maxPos*c.K)
	for r, off := range offs {
		n := lens[r]
		positions := n - c.Width + 1
		if positions < 1 {
			positions = 1
		}
		c.score(scores, xb[off:off+n*c.In], n, positions, wT)
		c.pool(out[r*stride+col:r*stride+col+c.K], scores, positions, nil, nil)
	}
}

// Backward routes dpooled through the max and ReLU into the inputs and
// parameters, returning dL/dx, n×In row-major (owned by the layer,
// valid until the next Backward call).
func (c *Conv1D) Backward(cache *ConvCache, dpooled []float64) []float64 {
	n := cache.n
	dx := growF(&cache.dx, n*c.In)
	zeroF(dx)
	wlen := c.Width * c.In
	for k := 0; k < c.K; k++ {
		g := dpooled[k]
		pos := cache.argmax[k]
		if g == 0 || pos < 0 {
			continue // ReLU killed the activation or no positive window
		}
		l := wlen
		if avail := (n - pos) * c.In; avail < l {
			l = avail
		}
		w := c.W.W[k*wlen : k*wlen+l]
		gw := c.W.G[k*wlen : k*wlen+l]
		c.B.G[k] += g
		f64.Axpy(g, cache.x[pos*c.In:pos*c.In+l], gw)
		f64.Axpy(g, w, dx[pos*c.In:pos*c.In+l])
	}
	return dx
}
