package nn

// This file implements the data-parallel gradient machinery: shared-
// weight model replicas ("shadow" parameters) and per-worker gradient
// shards that are reduced into the master parameters in a fixed order,
// so mini-batch training can fan examples out across goroutines while
// staying deterministic for a fixed worker count.

// ParallelModel is a Model whose structure can be replicated for
// data-parallel training. Replicas share the master's weight arrays
// (read-only during a batch) but own private gradient accumulators and
// private scratch buffers, so Forward/Backward on distinct replicas are
// safe to run concurrently.
type ParallelModel interface {
	Model
	// CloneShared returns a replica sharing weights with the receiver.
	// Params() of the replica returns shadow parameters in the same
	// order as the master's Params().
	CloneShared() Model
}

// Shadow returns a parameter view sharing the receiver's weight array
// but owning a fresh gradient accumulator. Optimizer state is not
// shared: shadow params exist only to accumulate worker-local
// gradients and must not be stepped directly.
func (p *Param) Shadow() *Param {
	return &Param{Name: p.Name, W: p.W, G: make([]float64, len(p.W))}
}

// frozenBackwardPanic is what Backward on a frozen model panics with: a
// frozen replica has no gradient accumulators, and training through it
// would move weights its kept layouts no longer match.
const frozenBackwardPanic = "nn: Backward on a frozen model (inference-only, see Freeze)"

// dropGrads releases the gradient accumulators of params.
func dropGrads(params []*Param) {
	for _, p := range params {
		p.G = nil
	}
}

// ReduceGrads adds src gradients into dst gradients element-wise and
// zeroes src. The two slices must hold parameters of identical shapes
// in identical order. Data-parallel training reduces each worker's
// replica parameters into the master's in worker order, which makes the
// floating-point accumulation order deterministic for a fixed worker
// count.
func ReduceGrads(dst, src []*Param) {
	for pi, p := range src {
		d := dst[pi].G
		for i, g := range p.G {
			if g != 0 {
				d[i] += g
				p.G[i] = 0
			}
		}
	}
}

// growF resizes *buf to length n, reusing capacity when possible.
// Contents are unspecified; callers must overwrite or zero as needed.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growI resizes an int buffer to length n.
func growI(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// zeroF clears a float buffer.
func zeroF(buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
}
