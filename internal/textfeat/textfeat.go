// Package textfeat implements the paper's traditional two-stage models
// (Section 5.1): a bag-of-n-grams TF-IDF featurizer (n up to 5, most
// frequent n-grams from the training set) followed by multinomial
// logistic regression for classification or Huber-loss linear
// regression for regression. Sparse feature vectors and AdaGrad updates
// keep training fast at large vocabulary sizes.
package textfeat

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/nn"
	"repro/internal/sqllex"
)

// SparseVec is a sparse feature vector with sorted unique indices.
type SparseVec struct {
	Idx []int
	Val []float64
}

// Featurizer maps token sequences to TF-IDF weighted bag-of-n-gram
// vectors.
type Featurizer struct {
	MaxN  int
	index map[string]int
	idf   []float64
}

// FitFeaturizer selects the maxFeatures most frequent n-grams (orders 1
// to maxN) from the training sequences and computes smoothed IDF
// weights IDF(t) = ln((1+|Q|) / (1+df(t))) + 1 — the scikit-learn
// TfidfVectorizer convention, which is what the paper's implementation
// used (Section 5.1 optimizes the traditional models with scikit-learn).
func FitFeaturizer(sequences [][]string, maxN, maxFeatures int) *Featurizer {
	type stat struct {
		count int // total frequency
		df    int // document frequency
		first int
	}
	stats := map[string]*stat{}
	order := 0
	for _, seq := range sequences {
		grams := sqllex.NGrams(seq, maxN)
		seen := map[string]bool{}
		for _, g := range grams {
			s, ok := stats[g]
			if !ok {
				s = &stat{first: order}
				order++
				stats[g] = s
			}
			s.count++
			if !seen[g] {
				s.df++
				seen[g] = true
			}
		}
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		si, sj := stats[keys[i]], stats[keys[j]]
		if si.count != sj.count {
			return si.count > sj.count
		}
		return si.first < sj.first
	})
	if maxFeatures > 0 && len(keys) > maxFeatures {
		keys = keys[:maxFeatures]
	}
	f := &Featurizer{MaxN: maxN, index: make(map[string]int, len(keys)), idf: make([]float64, len(keys))}
	n := float64(len(sequences))
	for i, k := range keys {
		// A unigram is a token, a substring of the statement it came
		// from: the copy keeps no training statement alive.
		f.index[strings.Clone(k)] = i
		f.idf[i] = math.Log((1+n)/(1+float64(stats[k].df))) + 1
	}
	return f
}

// NumFeatures returns the vocabulary size v.
func (f *Featurizer) NumFeatures() int { return len(f.idf) }

// Transform computes the TF-IDF vector of a token sequence. TF is the
// frequency normalized by the sequence's total n-gram count (preventing
// bias toward longer queries, Section 5.1).
func (f *Featurizer) Transform(tokens []string) SparseVec {
	grams := sqllex.NGrams(tokens, f.MaxN)
	if len(grams) == 0 {
		return SparseVec{}
	}
	counts := map[int]float64{}
	for _, g := range grams {
		if idx, ok := f.index[g]; ok {
			counts[idx]++
		}
	}
	v := SparseVec{Idx: make([]int, 0, len(counts)), Val: make([]float64, 0, len(counts))}
	for idx := range counts {
		v.Idx = append(v.Idx, idx)
	}
	sort.Ints(v.Idx)
	total := float64(len(grams))
	norm := 0.0
	for _, idx := range v.Idx {
		tfidf := (counts[idx] / total) * f.idf[idx]
		v.Val = append(v.Val, tfidf)
		norm += tfidf * tfidf
	}
	// L2 normalization stabilizes gradient scales across query lengths.
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v.Val {
			v.Val[i] /= norm
		}
	}
	return v
}

// TransformAll maps many sequences.
func (f *Featurizer) TransformAll(sequences [][]string) []SparseVec {
	out := make([]SparseVec, len(sequences))
	for i, seq := range sequences {
		out[i] = f.Transform(seq)
	}
	return out
}

// LogisticRegression is a multinomial (softmax) classifier over sparse
// features trained with AdaGrad on the cross-entropy loss.
type LogisticRegression struct {
	Classes  int
	Features int
	W        []float64 // Classes x Features
	B        []float64
	gsqW     []float64
	gsqB     []float64

	// Training scratch: per-step logits and logit gradients, so Fit
	// allocates nothing per example. Predict-path methods (Logits,
	// Probs) stay allocation-per-call and therefore concurrency-safe.
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

// ParamCount returns the number of model parameters (reported as p in
// the paper's tables).
func (m *LogisticRegression) ParamCount() int { return len(m.W) + len(m.B) }

// Logits computes class scores for a sparse input.
func (m *LogisticRegression) Logits(x SparseVec) []float64 {
	return m.logitsInto(x, make([]float64, m.Classes))
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

// Probs returns the softmax distribution for a sparse input.
func (m *LogisticRegression) Probs(x SparseVec) []float64 {
	return nn.Softmax(m.Logits(x))
}

// Predict returns the argmax class.
func (m *LogisticRegression) Predict(x SparseVec) int {
	logits := m.Logits(x)
	best := 0
	for c := range logits {
		if logits[c] > logits[best] {
			best = c
		}
	}
	return best
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
// AdaGrad on the Huber loss (Section 5.1: "For regression problems, we
// use Huber loss").
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

// ParamCount returns the number of parameters.
func (m *HuberRegression) ParamCount() int { return len(m.W) + 1 }

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

// LinearRegression1D fits y = a*x + b by least squares; the paper's
// `opt` baseline regresses CPU time on the optimizer cost estimate with
// a linear model.
type LinearRegression1D struct {
	A, B float64
}

// FitLinear1D fits the model analytically.
func FitLinear1D(x, y []float64) LinearRegression1D {
	if len(x) == 0 || len(x) != len(y) {
		return LinearRegression1D{}
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx float64
	for i := range x {
		cov += (x[i] - mx) * (y[i] - my)
		vx += (x[i] - mx) * (x[i] - mx)
	}
	if vx == 0 {
		return LinearRegression1D{A: 0, B: my}
	}
	a := cov / vx
	return LinearRegression1D{A: a, B: my - a*mx}
}

// Predict evaluates the fitted line.
func (m LinearRegression1D) Predict(x float64) float64 { return m.A*x + m.B }
