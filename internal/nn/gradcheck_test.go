package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad computes a centered finite-difference gradient of loss()
// with respect to every value in p.
func numericGrad(p *Param, loss func() float64) []float64 {
	const eps = 1e-5
	grad := make([]float64, len(p.W))
	for i := range p.W {
		orig := p.W[i]
		p.W[i] = orig + eps
		up := loss()
		p.W[i] = orig - eps
		down := loss()
		p.W[i] = orig
		grad[i] = (up - down) / (2 * eps)
	}
	return grad
}

func maxRelErr(analytic, numeric []float64) float64 {
	worst := 0.0
	for i := range analytic {
		denom := math.Max(math.Abs(analytic[i])+math.Abs(numeric[i]), 1e-8)
		rel := math.Abs(analytic[i]-numeric[i]) / denom
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

func zeroAll(params []*Param) {
	for _, p := range params {
		clear(p.G)
	}
}

// ceLoss is the softmax cross-entropy loss of logits for label.
func ceLoss(logits []float64, label int) float64 {
	return SoftmaxCEInto(logits, label, make([]float64, len(logits)))
}

// ceGrad is the gradient of ceLoss with respect to logits.
func ceGrad(logits []float64, label int) []float64 {
	d := make([]float64, len(logits))
	SoftmaxCEInto(logits, label, d)
	return d
}

func TestDenseGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 4, 3, rng)
	x := []float64{0.5, -0.2, 0.8, 0.1}
	label := 1
	loss := func() float64 { return ceLoss(d.Forward(x), label) }
	dlogits := ceGrad(d.Forward(x), label)
	zeroAll(d.Params())
	dx := d.Backward(x, dlogits)
	for _, p := range d.Params() {
		num := numericGrad(p, loss)
		if err := maxRelErr(p.G, num); err > 1e-5 {
			t.Fatalf("%s grad error %v", p.Name, err)
		}
	}
	// Input gradient via perturbing x.
	for i := range x {
		const eps = 1e-5
		orig := x[i]
		x[i] = orig + eps
		up := loss()
		x[i] = orig - eps
		down := loss()
		x[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-6 {
			t.Fatalf("dx[%d] = %v, numeric %v", i, dx[i], num)
		}
	}
}

func TestEmbeddingGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding("e", 5, 3, rng)
	d := NewDense("d", 3, 2, rng)
	ids := []int{1, 3, 1}
	rowSum := func() []float64 {
		sum := make([]float64, 3)
		for i, v := range e.Forward(ids) {
			sum[i%3] += v
		}
		return sum
	}
	loss := func() float64 { return ceLoss(d.Forward(rowSum()), 0) }
	sum := rowSum()
	dlogits := ceGrad(d.Forward(sum), 0)
	zeroAll(append(e.Params(), d.Params()...))
	dsum := d.Backward(sum, dlogits)
	dx := make([]float64, 0, len(ids)*3)
	for range ids {
		dx = append(dx, dsum...)
	}
	e.Backward(ids, dx)
	num := numericGrad(e.P, loss)
	if err := maxRelErr(e.P.G, num); err > 1e-5 {
		t.Fatalf("embedding grad error %v", err)
	}
}

func TestConv1DGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv1D("c", 2, 3, 4, rng)
	fc := NewDense("fc", 4, 2, rng)
	x := []float64{ // 4×3
		0.3, -0.1, 0.5, 0.8, 0.2, -0.4, -0.2, 0.6, 0.1, 0.4, 0.4, 0.4,
	}
	loss := func() float64 {
		pooled, _ := conv.Forward(x)
		return ceLoss(fc.Forward(pooled), 1)
	}
	pooled, cache := conv.Forward(x)
	dlogits := ceGrad(fc.Forward(pooled), 1)
	zeroAll(append(conv.Params(), fc.Params()...))
	dpooled := fc.Backward(pooled, dlogits)
	dx := conv.Backward(cache, dpooled)
	for _, p := range conv.Params() {
		num := numericGrad(p, loss)
		if err := maxRelErr(p.G, num); err > 1e-4 {
			t.Fatalf("%s grad error %v", p.Name, err)
		}
	}
	checkInputGrad(t, x, dx, loss)
}

// checkInputGrad compares the analytic input gradient dx against
// centered finite differences of loss over every element of x.
func checkInputGrad(t *testing.T, x, dx []float64, loss func() float64) {
	t.Helper()
	for i := range x {
		const eps = 1e-5
		orig := x[i]
		x[i] = orig + eps
		up := loss()
		x[i] = orig - eps
		down := loss()
		x[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-5 {
			t.Fatalf("dx[%d] = %v, numeric %v", i, dx[i], num)
		}
	}
}

func TestConv1DShortSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv := NewConv1D("c", 5, 3, 2, rng)
	x := []float64{0.1, 0.2, 0.3} // one step, shorter than the window
	pooled, cache := conv.Forward(x)
	if len(pooled) != 2 {
		t.Fatalf("pooled len = %d", len(pooled))
	}
	dx := conv.Backward(cache, []float64{1, 1})
	if len(dx) != 3 {
		t.Fatalf("dx len = %d", len(dx))
	}
}

func TestLSTMLayerGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLSTMLayer("l", 3, 4, rng)
	fc := NewDense("fc", 4, 2, rng)
	x := []float64{ // 3×3
		0.2, -0.3, 0.5, 0.7, 0.1, -0.2, -0.4, 0.6, 0.3,
	}
	loss := func() float64 {
		hs, _ := l.Forward(x)
		return ceLoss(fc.Forward(hs[len(hs)-4:]), 0)
	}
	hs, cache := l.Forward(x)
	last := hs[len(hs)-4:]
	dlogits := ceGrad(fc.Forward(last), 0)
	zeroAll(append(l.Params(), fc.Params()...))
	dlast := fc.Backward(last, dlogits)
	dhs := make([]float64, len(hs))
	copy(dhs[len(hs)-4:], dlast)
	dx := l.Backward(cache, dhs)
	for _, p := range l.Params() {
		num := numericGrad(p, loss)
		if err := maxRelErr(p.G, num); err > 1e-4 {
			t.Fatalf("%s grad error %v", p.Name, err)
		}
	}
	checkInputGrad(t, x, dx, loss)
}

func TestCNNModelGradcheckClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewCNN(CNNConfig{Vocab: 8, Embed: 4, Widths: []int{2, 3}, Kernels: 3, Outputs: 3}, rng)
	ids := []int{1, 4, 2, 7, 3}
	label := 2
	loss := func() float64 {
		out, _ := m.Forward(ids, false, nil)
		return ceLoss(out, label)
	}
	out, cache := m.Forward(ids, false, nil)
	dlogits := ceGrad(out, label)
	zeroAll(m.Params())
	m.Backward(ids, cache, dlogits)
	for _, p := range m.Params() {
		num := numericGrad(p, loss)
		if err := maxRelErr(p.G, num); err > 1e-4 {
			t.Fatalf("%s grad error %v", p.Name, err)
		}
	}
}

// TestCNNModelGradcheckTrainDropout checks the training-mode forward,
// the one training runs, with dropout 0.5. The dropout rng is re-seeded
// before every forward, so each finite difference sees the mask the
// analytic gradient was taken under.
func TestCNNModelGradcheckTrainDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewCNN(CNNConfig{Vocab: 8, Embed: 4, Widths: []int{2, 3}, Kernels: 4, Dropout: 0.5, Outputs: 3}, rng)
	ids := []int{1, 4, 2, 7, 3, 5}
	const label = 1
	drop := rand.New(rand.NewSource(0))
	forward := func() ([]float64, any) {
		drop.Seed(11)
		return m.Forward(ids, true, drop)
	}
	loss := func() float64 {
		out, _ := forward()
		return ceLoss(out, label)
	}
	out, cache := forward()
	kept := 0
	for _, v := range cache.(*cnnCache).mask {
		if v != 0 {
			kept++
		}
	}
	if n := len(cache.(*cnnCache).mask); kept == 0 || kept == n {
		t.Fatalf("dropout kept %d of %d features; the check needs a mask that drops some and keeps some", kept, n)
	}
	dlogits := ceGrad(out, label)
	zeroAll(m.Params())
	m.Backward(ids, cache, dlogits)
	for _, p := range m.Params() {
		num := numericGrad(p, loss)
		if err := maxRelErr(p.G, num); err > 1e-4 {
			t.Fatalf("%s grad error %v", p.Name, err)
		}
	}
}

func TestLSTMModelGradcheckRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewLSTM(LSTMConfig{Vocab: 8, Embed: 3, Hidden: 4, Layers: 2, Outputs: 1}, rng)
	ids := []int{2, 5, 1}
	target := 1.7
	loss := func() float64 {
		out, _ := m.Forward(ids, false, nil)
		l, _ := HuberLoss(out[0], target, 1)
		return l
	}
	out, cache := m.Forward(ids, false, nil)
	_, dpred := HuberLoss(out[0], target, 1)
	zeroAll(m.Params())
	m.Backward(ids, cache, []float64{dpred})
	for _, p := range m.Params() {
		num := numericGrad(p, loss)
		if err := maxRelErr(p.G, num); err > 1e-4 {
			t.Fatalf("%s grad error %v", p.Name, err)
		}
	}
}

func TestCNNModelEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewCNN(CNNConfig{Vocab: 4, Embed: 3, Kernels: 2, Outputs: 2}, rng)
	out, cache := m.Forward(nil, false, nil)
	if len(out) != 2 {
		t.Fatalf("out len = %d", len(out))
	}
	m.Backward(nil, cache, []float64{0.1, -0.1})
}

func TestLSTMModelEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewLSTM(LSTMConfig{Vocab: 4, Embed: 3, Hidden: 4, Layers: 1, Outputs: 2}, rng)
	out, cache := m.Forward(nil, false, nil)
	if len(out) != 2 {
		t.Fatalf("out len = %d", len(out))
	}
	m.Backward(nil, cache, []float64{0.1, -0.1})
}
