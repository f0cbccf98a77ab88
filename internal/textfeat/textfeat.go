// Package textfeat implements the paper's traditional two-stage models
// (Section 5.1): a bag-of-n-grams TF-IDF featurizer (n up to 5, most
// frequent n-grams from the training set) followed by one sparse linear
// layer trained on the task's loss — cross-entropy over the class scores
// (multinomial logistic regression) for classification, Huber loss for
// regression. Sparse feature vectors and AdaGrad updates keep training
// fast at large vocabulary sizes.
package textfeat

import (
	"math"
	"math/rand"
	"sort"
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
		last  int // the last sequence df counted
	}
	stats := map[string]*stat{}
	order := 0
	var buf []byte
	for q, seq := range sequences {
		buf = eachGram(seq, maxN, buf, func(g []byte) {
			s, ok := stats[string(g)]
			if !ok {
				s = &stat{first: order, last: -1}
				order++
				stats[string(g)] = s
			}
			s.count++
			if s.last != q {
				s.df++
				s.last = q
			}
		})
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
		f.index[k] = i
		f.idf[i] = math.Log((1+n)/(1+float64(stats[k].df))) + 1
	}
	return f
}

// eachGram calls fn with every n-gram of tokens for n from 1 to maxN,
// all unigrams first, then all bigrams, and so on: the n tokens joined
// by the unit separator \x1f, built in buf, which fn must not keep. It
// returns buf, grown, for the next call.
func eachGram(tokens []string, maxN int, buf []byte, fn func(g []byte)) []byte {
	for n := 1; n <= maxN && n <= len(tokens); n++ {
		for i := 0; i+n <= len(tokens); i++ {
			buf = append(buf[:0], tokens[i]...)
			for _, t := range tokens[i+1 : i+n] {
				buf = append(append(buf, '\x1f'), t...)
			}
			fn(buf)
		}
	}
	return buf
}

// gramCount is the number of n-grams eachGram yields over l tokens.
func gramCount(l, maxN int) int {
	c := 0
	for n := 1; n <= maxN && n <= l; n++ {
		c += l - n + 1
	}
	return c
}

// NumFeatures returns the vocabulary size v.
func (f *Featurizer) NumFeatures() int { return len(f.idf) }

// Transform computes the TF-IDF vector of a token sequence. TF is the
// frequency normalized by the sequence's total n-gram count (preventing
// bias toward longer queries, Section 5.1).
func (f *Featurizer) Transform(tokens []string) SparseVec {
	total := gramCount(len(tokens), f.MaxN)
	if total == 0 {
		return SparseVec{}
	}
	// The index of every n-gram in the vocabulary, sorted: a run of
	// equal indices is one feature and its count.
	hits := make([]int, 0, total)
	eachGram(tokens, f.MaxN, make([]byte, 0, 64), func(g []byte) {
		if idx, ok := f.index[string(g)]; ok {
			hits = append(hits, idx)
		}
	})
	sort.Ints(hits)
	distinct := 0
	for i := range hits {
		if i == 0 || hits[i] != hits[i-1] {
			distinct++
		}
	}
	v := SparseVec{Idx: make([]int, 0, distinct), Val: make([]float64, 0, distinct)}
	norm := 0.0
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j] == hits[i] {
			j++
		}
		idx := hits[i]
		tfidf := (float64(j-i) / float64(total)) * f.idf[idx]
		v.Idx = append(v.Idx, idx)
		v.Val = append(v.Val, tfidf)
		norm += tfidf * tfidf
		i = j
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

// Linear is the second stage of the traditional models: an Outputs ×
// Features sparse linear layer, scores = W·x + B, trained with AdaGrad
// on the loss its caller supplies.
type Linear struct {
	Outputs  int
	Features int
	W        []float64 // Outputs x Features
	B        []float64
	gsqW     []float64
	gsqB     []float64
}

// NewLinear allocates a zero-initialized layer.
func NewLinear(outputs, features int) *Linear {
	return &Linear{
		Outputs: outputs, Features: features,
		W: make([]float64, outputs*features), B: make([]float64, outputs),
		gsqW: make([]float64, outputs*features), gsqB: make([]float64, outputs),
	}
}

// ParamCount returns the number of layer parameters (reported as p in
// the paper's tables).
func (l *Linear) ParamCount() int { return len(l.W) + len(l.B) }

// Scores writes the layer's outputs for x into out (len l.Outputs) and
// returns it. It only reads the layer, so concurrent callers are safe.
func (l *Linear) Scores(x SparseVec, out []float64) []float64 {
	for o := 0; o < l.Outputs; o++ {
		sum := l.B[o]
		row := l.W[o*l.Features : (o+1)*l.Features]
		for i, idx := range x.Idx {
			sum += row[idx] * x.Val[i]
		}
		out[o] = sum
	}
	return out
}

// Fit trains with AdaGrad for the given epochs, shuffling each epoch.
// For each example, loss(i, scores, dscores) returns example i's loss
// for the layer's scores and writes its gradient with respect to them
// into dscores. Fit returns the mean loss of the final epoch.
func (l *Linear) Fit(xs []SparseVec, epochs int, lr float64, rng *rand.Rand, loss func(i int, scores, dscores []float64) float64) float64 {
	const eps = 1e-8
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	scores, dscores := make([]float64, l.Outputs), make([]float64, l.Outputs)
	lastLoss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		total := 0.0
		for _, i := range idx {
			x := xs[i]
			total += loss(i, l.Scores(x, scores), dscores)
			for o, g := range dscores {
				// A zero gradient would add 0 to the AdaGrad sums and
				// subtract 0 from weights that are never -0: skipping it
				// changes no bit.
				if g == 0 {
					continue
				}
				l.gsqB[o] += g * g
				l.B[o] -= lr * g / (math.Sqrt(l.gsqB[o]) + eps)
				row := l.W[o*l.Features : (o+1)*l.Features]
				gsqRow := l.gsqW[o*l.Features : (o+1)*l.Features]
				for j, fidx := range x.Idx {
					gw := g * x.Val[j]
					gsqRow[fidx] += gw * gw
					row[fidx] -= lr * gw / (math.Sqrt(gsqRow[fidx]) + eps)
				}
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
