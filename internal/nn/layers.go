package nn

import (
	"math"
	"math/rand"

	"repro/internal/f64"
)

// Embedding maps token ids to d-dimensional distributed representations
// (Definition 2: x_i = X e_i).
type Embedding struct {
	P    *Param
	V, D int

	out []float64
}

// NewEmbedding allocates a V x D embedding matrix.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	scale := XavierScale(vocab, dim)
	return &Embedding{
		P: NewParam(name, vocab*dim, UniformInit(rng, scale)),
		V: vocab, D: dim,
	}
}

// Forward returns the embedding rows for ids as one len(ids)×D
// row-major matrix, in a buffer owned by the layer that stays valid
// until the next Forward call: the layers above keep it, not a copy,
// for their Backward.
func (e *Embedding) Forward(ids []int) []float64 {
	return e.gather(growF(&e.out, len(ids)*e.D), ids)
}

// gather copies the embedding rows for ids into dst, len(ids)×D
// row-major, and returns it. An id outside the vocabulary reads as
// row 0.
func (e *Embedding) gather(dst []float64, ids []int) []float64 {
	for i, id := range ids {
		if id < 0 || id >= e.V {
			id = 0
		}
		copy(dst[i*e.D:(i+1)*e.D], e.P.W[id*e.D:(id+1)*e.D])
	}
	return dst
}

// CloneShared returns a replica sharing weights but owning private
// gradients and scratch.
func (e *Embedding) CloneShared() *Embedding {
	return &Embedding{P: e.P.Shadow(), V: e.V, D: e.D}
}

// Backward accumulates gradients for the rows selected by ids; dx is
// len(ids)×D row-major.
func (e *Embedding) Backward(ids []int, dx []float64) {
	for i, id := range ids {
		if id < 0 || id >= e.V {
			id = 0
		}
		f64.AddTo(e.P.G[id*e.D:(id+1)*e.D], dx[i*e.D:(i+1)*e.D])
	}
}

// Params returns the layer's parameters.
func (e *Embedding) Params() []*Param { return []*Param{e.P} }

// Dense is a fully connected layer y = Wx + b.
type Dense struct {
	W, B    *Param
	In, Out int

	y, dx []float64
}

// NewDense allocates an Out x In dense layer.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	scale := XavierScale(in, out)
	return &Dense{
		W:  NewParam(name+".W", out*in, UniformInit(rng, scale)),
		B:  NewParam(name+".b", out, nil),
		In: in, Out: out,
	}
}

// CloneShared returns a replica sharing weights but owning private
// gradients and scratch.
func (d *Dense) CloneShared() *Dense {
	return &Dense{W: d.W.Shadow(), B: d.B.Shadow(), In: d.In, Out: d.Out}
}

// Forward computes Wx + b. x must have length In. The returned slice
// is owned by the layer and valid until the next Forward call.
func (d *Dense) Forward(x []float64) []float64 {
	y := growF(&d.y, d.Out)
	copy(y, d.B.W)
	f64.GemvNAdd(y, d.W.W, x)
	return y
}

// ForwardBatch computes out[r] = W·x[r] + b for an n-row batch: x is
// n×In row-major, out is n×Out row-major. Each row runs the exact
// GemvNAdd chain of Forward, so row r is bit-identical to
// Forward(x[r]).
func (d *Dense) ForwardBatch(out, x []float64, n int) {
	for r := 0; r < n; r++ {
		y := out[r*d.Out : (r+1)*d.Out]
		copy(y, d.B.W)
		f64.GemvNAdd(y, d.W.W, x[r*d.In:(r+1)*d.In])
	}
}

// Backward accumulates parameter gradients and returns dL/dx (owned by
// the layer, valid until the next Backward call).
func (d *Dense) Backward(x, dy []float64) []float64 {
	dx := growF(&d.dx, d.In)
	f64.GemvT(dx, d.W.W[:d.Out*d.In], dy)
	f64.AddTo(d.B.G, dy)
	for o, g := range dy {
		if g != 0 {
			f64.Axpy(g, x, d.W.G[o*d.In:(o+1)*d.In])
		}
	}
	return dx
}

// Params returns the layer's parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Dropout masks vector entries with probability p at train time,
// scaling survivors by 1/(1-p) (inverted dropout).
type Dropout struct {
	P float64

	out, mask, dx []float64
}

// Forward applies dropout, returning the output and the mask used.
// At evaluation time (train=false) it is the identity with a nil mask.
// The returned slices are owned by the layer and valid until the next
// Forward call.
func (dr *Dropout) Forward(x []float64, train bool, rng *rand.Rand) ([]float64, []float64) {
	if !train || dr.P <= 0 {
		return x, nil
	}
	keep := 1 - dr.P
	out := growF(&dr.out, len(x))
	mask := growF(&dr.mask, len(x))
	for i := range x {
		if rng.Float64() < keep {
			mask[i] = 1 / keep
			out[i] = x[i] * mask[i]
		} else {
			mask[i] = 0
			out[i] = 0
		}
	}
	return out, mask
}

// Backward routes gradients through the mask.
func (dr *Dropout) Backward(dy, mask []float64) []float64 {
	if mask == nil {
		return dy
	}
	dx := growF(&dr.dx, len(dy))
	for i := range dy {
		dx[i] = dy[i] * mask[i]
	}
	return dx
}

// SoftmaxInto writes the softmax distribution of logits into dst
// (which must have len(logits) elements) and returns dst. It is the
// allocation-free base of Softmax, for hot paths that own scratch.
func SoftmaxInto(logits, dst []float64) []float64 {
	maxL := logits[0]
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		dst[i] = math.Exp(v - maxL)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// Softmax returns the softmax distribution of logits (numerically
// stable) in a freshly allocated slice.
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(logits, make([]float64, len(logits)))
}

// SoftmaxCEInto computes the cross-entropy loss for the true label and
// writes the logit gradient (probs - onehot) into dlogits, which must
// have len(logits) elements. It allocates nothing: training loops pass
// per-worker scratch.
func SoftmaxCEInto(logits []float64, label int, dlogits []float64) (loss float64) {
	SoftmaxInto(logits, dlogits)
	p := dlogits[label]
	if p < 1e-12 {
		p = 1e-12
	}
	dlogits[label] -= 1
	return -math.Log(p)
}

// HuberLoss computes the Huber loss (delta threshold) of a scalar
// prediction and its gradient with respect to the prediction.
func HuberLoss(pred, target, delta float64) (loss, dpred float64) {
	r := pred - target
	if math.Abs(r) <= delta {
		return 0.5 * r * r, r
	}
	if r > 0 {
		return delta * (math.Abs(r) - 0.5*delta), delta
	}
	return delta * (math.Abs(r) - 0.5*delta), -delta
}
