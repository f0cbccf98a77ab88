// Package nn is a from-scratch neural-network engine implementing
// exactly the architectures of Section 5 of the paper: token embedding
// layers, three-layer LSTMs trained with backpropagation through time
// (Section 5.2 / Appendix A.2), and the shallow convolutional network
// of Kim (2014) with kernel widths {3,4,5}, ReLU, max-over-time
// pooling, and dropout (Section 5.3). Training uses cross-entropy for
// classification and Huber loss for regression, optimized with AdaMax
// and gradient clipping, as in the paper's setup (Section 6.1).
//
// The implementation is plain float64 slices on the CPU (this package
// has no assembly and no GPU code) but numerically correct — every
// layer has a finite-difference gradient test — and fast: all dense
// inner loops route through the unrolled, deterministically-ordered
// kernels of repro/internal/f64 (whose GEMM row update and GemvTSeq
// column sums are AVX2 kernels where the CPU has them, bit-identical to
// their Go loops), and the LSTM computes its input transform as one
// sequence-level GEMM hoisted out of the recurrence. Its backward
// recurrence dhₜ₋₁ = Whᵀ·dpreₜ reads Wh as stored (f64.GemvTSeq); the
// transposed weight copies are layouts of the forward passes only.
//
// Each architecture's forward math is written once. An LSTM timestep is
// one function over any number of rows (LSTMLayer.step): training and
// scalar inference run it on one row per timestep, batched inference on
// one row per distinct prefix of the batch. A CNN encodes one statement
// one way (CNNModel.encode); its ForwardBatch encodes every row so and
// runs the dense head once over the pooled matrix.
//
// A model is either trainable or frozen. Trainable is how NewCNN,
// NewLSTM and CloneShared make it: parameters carry gradient
// accumulators, and every forward pass re-derives the transposed weight
// layouts its GEMMs read, because the optimizer moves the weights every
// step. Freeze turns a CloneShared replica into an inference replica:
// no accumulators, layouts derived once and kept, Backward panics, and
// every output bit-identical to the trainable model's.
//
// Training runs every worker on a CloneShared replica of the master
// model, and one Optimizer.Step per batch turns the workers' gradient
// shards into the update: reduce in worker order, average, clip by the
// global norm, AdaMax. The master's parameters hold the weights and the
// AdaMax moments.
package nn

import (
	"math"
	"math/rand"
)

// Param is one learnable tensor with its gradient and optimizer state.
type Param struct {
	Name string
	W    []float64 // values
	G    []float64 // gradient accumulator
	// Optimizer state (first/second moments), allocated lazily.
	m, v []float64
}

// NewParam allocates a parameter of the given size initialized by init.
func NewParam(name string, size int, init func(i int) float64) *Param {
	p := &Param{Name: name, W: make([]float64, size), G: make([]float64, size)}
	if init != nil {
		for i := range p.W {
			p.W[i] = init(i)
		}
	}
	return p
}

// UniformInit returns an initializer drawing from U(-scale, +scale).
func UniformInit(rng *rand.Rand, scale float64) func(int) float64 {
	return func(int) float64 { return (rng.Float64()*2 - 1) * scale }
}

// XavierScale is the Glorot uniform bound for a fanIn x fanOut layer.
func XavierScale(fanIn, fanOut int) float64 {
	return math.Sqrt(6.0 / float64(fanIn+fanOut))
}

// Size returns the number of scalar values.
func (p *Param) Size() int { return len(p.W) }

// ParamCount sums the sizes of params (the paper reports per-model
// parameter counts in Tables 2, 4, and 5).
func ParamCount(params []*Param) int {
	total := 0
	for _, p := range params {
		total += p.Size()
	}
	return total
}
