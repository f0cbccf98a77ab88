package textfeat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sqllex"
)

func seqs(queries ...string) [][]string {
	out := make([][]string, len(queries))
	for i, q := range queries {
		out[i] = sqllex.Words(q)
	}
	return out
}

func TestFeaturizerVocabularyCap(t *testing.T) {
	f := FitFeaturizer(seqs("SELECT a FROM t", "SELECT b FROM t"), 2, 5)
	if f.NumFeatures() != 5 {
		t.Fatalf("features = %d, want 5", f.NumFeatures())
	}
}

// TestFeaturizerHoldsNoStatementText checks the featurizer copies the
// n-grams it keeps: a unigram is a Words token, a substring of its
// statement, and keeping it would keep the statement alive.
func TestFeaturizerHoldsNoStatementText(t *testing.T) {
	q := string([]byte("SELECT objid FROM PhotoObj"))
	f := FitFeaturizer([][]string{sqllex.Words(q)}, 2, 0)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(q)))
	for g := range f.index {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(g))); p >= lo && p < lo+uintptr(len(q)) {
			t.Errorf("n-gram %q points into the statement", g)
		}
	}
}

func TestFeaturizerMostFrequentFirst(t *testing.T) {
	f := FitFeaturizer(seqs("SELECT a a a", "SELECT a"), 1, 2)
	// "a" appears 4 times, "SELECT" twice: both must be kept.
	va := f.Transform([]string{"a"})
	vs := f.Transform([]string{"SELECT"})
	if len(va.Idx) != 1 || len(vs.Idx) != 1 {
		t.Fatalf("expected both tokens in vocabulary: %v %v", va, vs)
	}
}

func TestTransformIgnoresUnknown(t *testing.T) {
	f := FitFeaturizer(seqs("SELECT a FROM t"), 1, 0)
	v := f.Transform([]string{"zzz", "qqq"})
	if len(v.Idx) != 0 {
		t.Fatalf("unknown tokens must be dropped: %v", v)
	}
}

func TestTransformEmpty(t *testing.T) {
	f := FitFeaturizer(seqs("SELECT a"), 1, 0)
	v := f.Transform(nil)
	if len(v.Idx) != 0 {
		t.Fatal("empty input should transform to empty vector")
	}
}

func TestTransformL2Normalized(t *testing.T) {
	f := FitFeaturizer(seqs("SELECT a FROM t WHERE x", "SELECT b FROM u"), 2, 0)
	v := f.Transform(sqllex.Words("SELECT a FROM t"))
	norm := 0.0
	for _, val := range v.Val {
		norm += val * val
	}
	if len(v.Val) > 0 && math.Abs(norm-1) > 1e-9 {
		t.Fatalf("norm = %v, want 1", norm)
	}
}

func TestIDFDiscriminativePower(t *testing.T) {
	// "SELECT" appears in every query (low IDF); "rare" in one (high).
	f := FitFeaturizer(seqs("SELECT a", "SELECT b", "SELECT rare"), 1, 0)
	// With a mixed query, the rare token's weight must exceed the
	// ubiquitous token's weight (before L2 normalization they differ by
	// the IDF ratio, and normalization preserves the ordering).
	v := f.Transform([]string{"SELECT", "rare"})
	if len(v.Val) != 2 {
		t.Fatalf("expected 2 features, got %v", v)
	}
	// Locate which index is "rare" by transforming it alone.
	rareIdx := f.Transform([]string{"rare"}).Idx[0]
	var wRare, wCommon float64
	for i, idx := range v.Idx {
		if idx == rareIdx {
			wRare = v.Val[i]
		} else {
			wCommon = v.Val[i]
		}
	}
	if wRare <= wCommon {
		t.Fatalf("rare token should outweigh ubiquitous token: %v vs %v", wRare, wCommon)
	}
}

// Property: Transform output indices are sorted and within range.
func TestTransformIndicesSortedProperty(t *testing.T) {
	f := FitFeaturizer(seqs(
		"SELECT a FROM t WHERE x = 1",
		"SELECT b, c FROM u JOIN v ON u.x = v.x",
		"UPDATE t SET a = 2",
	), 3, 0)
	check := func(s string) bool {
		v := f.Transform(sqllex.Words(s))
		for i := range v.Idx {
			if v.Idx[i] < 0 || v.Idx[i] >= f.NumFeatures() {
				return false
			}
			if i > 0 && v.Idx[i] <= v.Idx[i-1] {
				return false
			}
		}
		return len(v.Idx) == len(v.Val)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLogisticRegressionLearnsSeparableTask(t *testing.T) {
	// Class 0 queries mention "PhotoObj", class 1 mention "SpecObj".
	var train [][]string
	var labels []int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			train = append(train, sqllex.Words("SELECT ra FROM PhotoObj WHERE x = 1"))
			labels = append(labels, 0)
		} else {
			train = append(train, sqllex.Words("SELECT z FROM SpecObj WHERE y = 2"))
			labels = append(labels, 1)
		}
	}
	f := FitFeaturizer(train, 2, 0)
	xs := f.TransformAll(train)
	m := NewLogisticRegression(2, f.NumFeatures())
	m.Fit(xs, labels, 5, 0.5, rng)
	correct := 0
	for i, x := range xs {
		if m.Predict(x) == labels[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(xs)) < 0.99 {
		t.Fatalf("separable task accuracy = %d/%d", correct, len(xs))
	}
}

func TestLogisticRegressionProbsSumToOne(t *testing.T) {
	m := NewLogisticRegression(3, 4)
	p := m.Probs(SparseVec{Idx: []int{0, 2}, Val: []float64{1, -1}})
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum = %v", sum)
	}
}

func TestHuberRegressionLearnsLinearTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Target = 3 * presence(feature0) + 1.
	var xs []SparseVec
	var ys []float64
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			xs = append(xs, SparseVec{Idx: []int{0}, Val: []float64{1}})
			ys = append(ys, 4)
		} else {
			xs = append(xs, SparseVec{Idx: []int{1}, Val: []float64{1}})
			ys = append(ys, 1)
		}
	}
	m := NewHuberRegression(2)
	m.Fit(xs, ys, 60, 0.5, rng)
	if p := m.Predict(xs[0]); math.Abs(p-4) > 0.3 {
		t.Fatalf("pred = %v, want ~4", p)
	}
	if p := m.Predict(xs[1]); math.Abs(p-1) > 0.3 {
		t.Fatalf("pred = %v, want ~1", p)
	}
}

func TestParamCounts(t *testing.T) {
	lr := NewLogisticRegression(3, 10)
	if lr.ParamCount() != 33 {
		t.Fatalf("logreg params = %d, want 33", lr.ParamCount())
	}
	hr := NewHuberRegression(10)
	if hr.ParamCount() != 11 {
		t.Fatalf("huber params = %d, want 11", hr.ParamCount())
	}
}

func TestFitLinear1D(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	m := FitLinear1D(x, y)
	if math.Abs(m.A-2) > 1e-9 || math.Abs(m.B-1) > 1e-9 {
		t.Fatalf("fit = %+v", m)
	}
	if p := m.Predict(10); math.Abs(p-21) > 1e-9 {
		t.Fatalf("predict = %v", p)
	}
}

func TestFitLinear1DDegenerate(t *testing.T) {
	m := FitLinear1D([]float64{5, 5, 5}, []float64{1, 2, 3})
	if m.A != 0 || math.Abs(m.B-2) > 1e-9 {
		t.Fatalf("constant-x fit = %+v, want mean-only model", m)
	}
	if m := FitLinear1D(nil, nil); m.A != 0 || m.B != 0 {
		t.Fatal("empty fit should be zero")
	}
}
