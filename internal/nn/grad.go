package nn

// This file implements the data-parallel gradient machinery: shared-
// weight model replicas ("shadow" parameters) whose private gradient
// shards Optimizer.Step reduces in worker order and turns into one
// update of the master parameters, so mini-batch training can fan
// examples out across goroutines while staying deterministic for a
// fixed worker count.

// Shadow returns a parameter view sharing the receiver's weight array
// but owning a fresh gradient accumulator and no optimizer state. A
// training worker's replica accumulates into its shadows; Step reads
// them as one gradient shard and moves the master parameter's weights
// and moments.
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
