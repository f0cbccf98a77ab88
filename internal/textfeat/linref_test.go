package textfeat

import (
	"math"
	"math/rand"

	"repro/internal/nn"
)

// The two second stages Linear replaced, kept as the reference
// TestLinearMatchesReference holds it to bit for bit: a softmax
// classifier and a Huber regressor, each with its own AdaGrad loop.
// The classifier skips a class whose logit gradient is 0; the regressor
// applies every gradient, zero or not.

// LogisticRegression is a multinomial (softmax) classifier over sparse
// features trained with AdaGrad on the cross-entropy loss.
type LogisticRegression struct {
	Classes  int
	Features int
	W        []float64 // Classes x Features
	B        []float64
	gsqW     []float64
	gsqB     []float64

	logitsBuf, dlogitsBuf []float64
}

// NewLogisticRegression allocates a zero-initialized model.
func NewLogisticRegression(classes, features int) *LogisticRegression {
	return &LogisticRegression{
		Classes: classes, Features: features,
		W: make([]float64, classes*features), B: make([]float64, classes),
		gsqW: make([]float64, classes*features), gsqB: make([]float64, classes),
	}
}

// logitsInto writes class scores into out (len m.Classes).
func (m *LogisticRegression) logitsInto(x SparseVec, out []float64) []float64 {
	for c := 0; c < m.Classes; c++ {
		sum := m.B[c]
		row := m.W[c*m.Features : (c+1)*m.Features]
		for i, idx := range x.Idx {
			sum += row[idx] * x.Val[i]
		}
		out[c] = sum
	}
	return out
}

// Fit trains with AdaGrad for the given epochs, shuffling each epoch.
// It returns the mean training loss of the final epoch.
func (m *LogisticRegression) Fit(xs []SparseVec, ys []int, epochs int, lr float64, rng *rand.Rand) float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	lastLoss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		total := 0.0
		for _, i := range idx {
			total += m.step(xs[i], ys[i], lr)
		}
		lastLoss = total / float64(len(xs))
	}
	return lastLoss
}

func (m *LogisticRegression) step(x SparseVec, y int, lr float64) float64 {
	if m.logitsBuf == nil {
		m.logitsBuf = make([]float64, m.Classes)
		m.dlogitsBuf = make([]float64, m.Classes)
	}
	logits := m.logitsInto(x, m.logitsBuf)
	dlogits := m.dlogitsBuf
	loss := nn.SoftmaxCEInto(logits, y, dlogits)
	const eps = 1e-8
	for c := 0; c < m.Classes; c++ {
		g := dlogits[c]
		if g == 0 {
			continue
		}
		m.gsqB[c] += g * g
		m.B[c] -= lr * g / (math.Sqrt(m.gsqB[c]) + eps)
		row := m.W[c*m.Features : (c+1)*m.Features]
		gsqRow := m.gsqW[c*m.Features : (c+1)*m.Features]
		for i, fidx := range x.Idx {
			gw := g * x.Val[i]
			gsqRow[fidx] += gw * gw
			row[fidx] -= lr * gw / (math.Sqrt(gsqRow[fidx]) + eps)
		}
	}
	return loss
}

// HuberRegression is a linear model over sparse features trained with
// AdaGrad on the Huber loss.
type HuberRegression struct {
	Features int
	Delta    float64
	W        []float64
	B        float64
	gsqW     []float64
	gsqB     float64
}

// NewHuberRegression allocates a zero model with threshold delta = 1.
func NewHuberRegression(features int) *HuberRegression {
	return &HuberRegression{Features: features, Delta: 1, W: make([]float64, features), gsqW: make([]float64, features)}
}

// Predict computes the regression output for a sparse input.
func (m *HuberRegression) Predict(x SparseVec) float64 {
	sum := m.B
	for i, idx := range x.Idx {
		sum += m.W[idx] * x.Val[i]
	}
	return sum
}

// Fit trains for the given epochs and returns the final-epoch mean
// Huber loss.
func (m *HuberRegression) Fit(xs []SparseVec, ys []float64, epochs int, lr float64, rng *rand.Rand) float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	lastLoss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		total := 0.0
		for _, i := range idx {
			pred := m.Predict(xs[i])
			loss, dpred := nn.HuberLoss(pred, ys[i], m.Delta)
			total += loss
			const eps = 1e-8
			m.gsqB += dpred * dpred
			m.B -= lr * dpred / (math.Sqrt(m.gsqB) + eps)
			x := xs[i]
			for j, fidx := range x.Idx {
				g := dpred * x.Val[j]
				m.gsqW[fidx] += g * g
				m.W[fidx] -= lr * g / (math.Sqrt(m.gsqW[fidx]) + eps)
			}
		}
		lastLoss = total / float64(len(xs))
	}
	return lastLoss
}
