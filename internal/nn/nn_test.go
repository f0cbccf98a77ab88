package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.Abs(a) > 100 || math.Abs(b) > 100 || math.Abs(c) > 100 {
			return true
		}
		p := Softmax([]float64{a, b, c})
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1001, 1002})
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflowed")
		}
	}
}

func TestSoftmaxCEGradientSums(t *testing.T) {
	// dlogits = probs - onehot sums to 0.
	d := ceGrad([]float64{0.5, -1, 2}, 1)
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("gradient sum = %v, want 0", sum)
	}
}

func TestHuberLossMatchesDefinition(t *testing.T) {
	if l, g := HuberLoss(1.5, 1.0, 1); math.Abs(l-0.125) > 1e-12 || math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("quadratic region: l=%v g=%v", l, g)
	}
	if l, g := HuberLoss(5, 1, 1); math.Abs(l-3.5) > 1e-12 || g != 1 {
		t.Fatalf("linear region: l=%v g=%v", l, g)
	}
	if _, g := HuberLoss(-5, 1, 1); g != -1 {
		t.Fatal("linear region negative gradient")
	}
}

func TestDropoutEval(t *testing.T) {
	dr := Dropout{P: 0.5}
	x := []float64{1, 2, 3}
	out, mask := dr.Forward(x, false, nil)
	if mask != nil {
		t.Fatal("eval mode should not mask")
	}
	for i := range x {
		if out[i] != x[i] {
			t.Fatal("eval mode must be identity")
		}
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	dr := Dropout{P: 0.5}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 10000)
	for i := range x {
		x[i] = 1
	}
	out, mask := dr.Forward(x, true, rng)
	if mask == nil {
		t.Fatal("train mode must mask")
	}
	sum := 0.0
	zeros := 0
	for _, v := range out {
		sum += v
		if v == 0 {
			zeros++
		}
	}
	mean := sum / float64(len(out))
	if math.Abs(mean-1) > 0.1 {
		t.Fatalf("inverted dropout should preserve expectation: mean = %v", mean)
	}
	frac := float64(zeros) / float64(len(out))
	if math.Abs(frac-0.5) > 0.1 {
		t.Fatalf("dropout rate = %v, want ~0.5", frac)
	}
}

func TestDropoutBackward(t *testing.T) {
	dr := Dropout{P: 0.5}
	rng := rand.New(rand.NewSource(2))
	x := []float64{1, 1, 1, 1}
	_, mask := dr.Forward(x, true, rng)
	dy := []float64{1, 1, 1, 1}
	dx := dr.Backward(dy, mask)
	for i := range dx {
		if dx[i] != mask[i] {
			t.Fatal("backward must apply the same mask")
		}
	}
	if got := dr.Backward(dy, nil); &got[0] != &dy[0] {
		t.Fatal("nil mask should pass through")
	}
}

// TestClipGradNorm checks Step's clip through the first moment, which
// after one step from zero holds (1-β1)·g for the clipped g.
func TestClipGradNorm(t *testing.T) {
	step := func(clip, g0, g1 float64) (*Param, *Optimizer) {
		p := NewParam("p", 2, nil)
		p.G[0], p.G[1] = g0, g1
		o := NewOptimizer(1e-3, clip)
		o.Step([]*Param{p}, [][]*Param{{p}}, 1)
		return p, o
	}
	_, o := step(1, 3, 4) // norm 5
	b1 := 1 - o.Beta1
	g0, g1 := o.m[0][0]/b1, o.m[0][1]/b1
	if norm := math.Sqrt(g0*g0 + g1*g1); math.Abs(norm-1) > 1e-9 {
		t.Fatalf("norm after clip = %v", norm)
	}
	if math.Abs(g0-0.6) > 1e-9 || math.Abs(g1-0.8) > 1e-9 {
		t.Fatalf("clipped gradient (%v, %v), want (0.6, 0.8)", g0, g1)
	}
	// Clipping below the threshold is a no-op: the step is bit for bit
	// the step with the clip disabled.
	p, po := step(1, 0.3, 0.4)
	off, oo := step(0, 0.3, 0.4)
	if !sameBits(p.W, off.W) || !sameBits(po.m[0], oo.m[0]) || !sameBits(po.v[0], oo.v[0]) {
		t.Fatal("no-op clip modified the step")
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewCNN(CNNConfig{Vocab: 10, Embed: 4, Widths: []int{3}, Kernels: 5, Outputs: 2}, rng)
	// emb 10*4 + conv (5*3*4 + 5) + fc (2*5 + 2)
	want := 40 + 65 + 12
	if got := ParamCount(m.Params()); got != want {
		t.Fatalf("params = %d, want %d", got, want)
	}
}

func TestOptimizerReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense("d", 2, 2, rng)
	opt := NewOptimizer(0.05, 0)
	x := []float64{1, -1}
	label := 0
	first := ceLoss(d.Forward(x), label)
	for i := 0; i < 50; i++ {
		d.Backward(x, ceGrad(d.Forward(x), label))
		opt.Step(d.Params(), [][]*Param{d.Params()}, 1)
	}
	if last := ceLoss(d.Forward(x), label); last >= first {
		t.Fatalf("AdaMax did not reduce loss: %v -> %v", first, last)
	}
}

func TestOptimizerZeroesGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense("d", 2, 2, rng)
	d.Backward([]float64{1, 2}, ceGrad(d.Forward([]float64{1, 2}), 0))
	opt := NewOptimizer(1e-3, 0.25)
	opt.Step(d.Params(), [][]*Param{d.Params()}, 1)
	for _, p := range d.Params() {
		for _, g := range p.G {
			if g != 0 {
				t.Fatal("gradients must be zeroed after Step")
			}
		}
	}
}

// A tiny end-to-end learning sanity check: the CNN should learn to
// separate two token patterns.
func TestCNNLearnsToyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewCNN(CNNConfig{Vocab: 6, Embed: 8, Widths: []int{2}, Kernels: 8, Outputs: 2}, rng)
	opt := NewOptimizer(0.01, 0.25)
	// Class 0: sequences containing bigram (1,2); class 1: (3,4).
	samples := [][]int{{1, 2, 5}, {5, 1, 2}, {3, 4, 5}, {5, 3, 4}}
	labels := []int{0, 0, 1, 1}
	for epoch := 0; epoch < 200; epoch++ {
		for i, ids := range samples {
			out, cache := m.Forward(ids, true, rng)
			m.Backward(ids, cache, ceGrad(out, labels[i]))
			opt.Step(m.Params(), [][]*Param{m.Params()}, 1)
		}
	}
	correct := 0
	for i, ids := range samples {
		out, _ := m.Forward(ids, false, nil)
		pred := 0
		if out[1] > out[0] {
			pred = 1
		}
		if pred == labels[i] {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("CNN failed toy task: %d/4 correct", correct)
	}
}

// The LSTM should learn a toy order-sensitive task.
func TestLSTMLearnsToyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewLSTM(LSTMConfig{Vocab: 4, Embed: 6, Hidden: 8, Layers: 1, Outputs: 2}, rng)
	opt := NewOptimizer(0.02, 0.25)
	// Class depends on whether token 1 precedes token 2.
	samples := [][]int{{1, 3, 2}, {1, 2, 3}, {2, 3, 1}, {2, 1, 3}}
	labels := []int{0, 0, 1, 1}
	for epoch := 0; epoch < 300; epoch++ {
		for i, ids := range samples {
			out, cache := m.Forward(ids, true, rng)
			m.Backward(ids, cache, ceGrad(out, labels[i]))
			opt.Step(m.Params(), [][]*Param{m.Params()}, 1)
		}
	}
	correct := 0
	for i, ids := range samples {
		out, _ := m.Forward(ids, false, nil)
		pred := 0
		if out[1] > out[0] {
			pred = 1
		}
		if pred == labels[i] {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("LSTM failed toy task: %d/4 correct", correct)
	}
}

func TestEmbeddingOutOfRangeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEmbedding("e", 4, 3, rng)
	x := e.Forward([]int{-1, 99})
	if !sameBits(x, append(e.P.W[:3:3], e.P.W[:3]...)) {
		t.Fatal("out-of-range ids should map to UNK row")
	}
	e.Backward([]int{-1, 99}, []float64{1, 1, 1, 1, 1, 1})
}
