package nn

import "math"

// Optimizer applies AdaMax (Kingma & Ba) updates to parameters. The
// paper examined both Adam and AdaMax and found AdaMax performed better
// (Section 5.2), so AdaMax is the one update rule training uses.
type Optimizer struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	Clip  float64 // global grad-norm clip; 0 disables
	t     int
}

// NewOptimizer returns an optimizer with the paper's hyper-parameters
// (default betas, no weight decay) at learning rate lr.
func NewOptimizer(lr, clip float64) *Optimizer {
	return &Optimizer{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: clip}
}

// Step applies one update to params from their accumulated gradients
// and zeroes the gradients.
func (o *Optimizer) Step(params []*Param) {
	if o.Clip > 0 {
		ClipGradNorm(params, o.Clip)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	for _, p := range params {
		if p.m == nil {
			p.m = make([]float64, len(p.W))
			p.v = make([]float64, len(p.W))
		}
		for i, g := range p.G {
			p.m[i] = o.Beta1*p.m[i] + (1-o.Beta1)*g
			u := o.Beta2 * p.v[i]
			if a := math.Abs(g); a > u {
				u = a
			}
			p.v[i] = u
			if u > 0 {
				p.W[i] -= o.LR * (p.m[i] / bc1) / (u + o.Eps)
			}
		}
		p.ZeroGrad()
	}
}
