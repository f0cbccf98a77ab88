package nn

import (
	"math"

	"repro/internal/f64"
)

// Optimizer applies AdaMax (Kingma & Ba) updates to parameters. The
// paper examined both Adam and AdaMax and found AdaMax performed better
// (Section 5.2), so AdaMax is the one update rule training uses. The
// optimizer owns the AdaMax state — the step count and the moments —
// so every training run that makes its own optimizer starts from zero,
// whatever model it trains.
type Optimizer struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	Clip  float64 // global grad-norm clip; 0 disables
	t     int
	// m and v are the first and second moments, one slice per
	// parameter of Step's params, in order.
	m, v [][]float64
}

// NewOptimizer returns an optimizer with the paper's hyper-parameters
// (default betas, no weight decay) at learning rate lr.
func NewOptimizer(lr, clip float64) *Optimizer {
	return &Optimizer{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: clip}
}

// Step turns one batch's gradients into one update of params. grads
// holds one gradient shard per training worker — the worker replica's
// Params, in params' order (a loop without replicas passes
// [][]*Param{params}) — and n is the batch's example count. In order:
//
//  1. grads[1:] are added into grads[0] in worker order, and cleared;
//     only nonzero entries are added and cleared, so an embedding shard
//     costs the rows its examples touched. The summation order is fixed
//     for a fixed worker count.
//  2. The sum is scaled by 1/n, the batch mean.
//  3. With Clip > 0, the global norm √(Σ Dot(g, g)) over the parameters
//     in order is taken, and above Clip each entry is scaled by
//     Clip/norm.
//  4. AdaMax moves params' weights and the optimizer's moments.
//  5. grads[0] is zeroed.
func (o *Optimizer) Step(params []*Param, grads [][]*Param, n int) {
	sum := grads[0]
	for _, shard := range grads[1:] {
		for pi, p := range shard {
			d := sum[pi].G
			for i, g := range p.G {
				if g != 0 {
					d[i] += g
					p.G[i] = 0
				}
			}
		}
	}
	mean := 1 / float64(n)
	for _, p := range sum {
		for i := range p.G {
			p.G[i] *= mean
		}
	}
	clip := 1.0
	if c := o.Clip; c > 0 {
		sq := 0.0
		for _, p := range sum {
			sq += f64.Dot(p.G, p.G)
		}
		if norm := math.Sqrt(sq); !(norm <= c || norm == 0) {
			clip = c / norm
		}
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	for len(o.m) < len(params) {
		n := len(params[len(o.m)].W)
		o.m, o.v = append(o.m, make([]float64, n)), append(o.v, make([]float64, n))
	}
	for pi, p := range params {
		m, v := o.m[pi], o.v[pi]
		grad := sum[pi].G
		for i, g := range grad {
			g *= clip
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			u := o.Beta2 * v[i]
			if a := math.Abs(g); a > u {
				u = a
			}
			v[i] = u
			if u > 0 {
				p.W[i] -= o.LR * (m[i] / bc1) / (u + o.Eps)
			}
		}
		clear(grad)
	}
}
