package textfeat

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/nn"
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

// TestEachGramOrder pins the n-gram order FitFeaturizer's tie-break
// reads: every unigram, then every bigram, and so on.
func TestEachGramOrder(t *testing.T) {
	checkGrams(t, []string{"a", "b", "c"}, 2, []string{"a", "b", "c", "a\x1fb", "b\x1fc"})
	checkGrams(t, []string{"ab", "c", "de"}, 3, []string{"ab", "c", "de", "ab\x1fc", "c\x1fde", "ab\x1fc\x1fde"})
}

// TestEachGramShortSequence checks that no n-gram is longer than the
// sequence.
func TestEachGramShortSequence(t *testing.T) {
	checkGrams(t, []string{"a"}, 5, []string{"a"})
	checkGrams(t, nil, 3, nil)
}

// TestEachGramZero checks that maxN 0 yields no n-gram at all.
func TestEachGramZero(t *testing.T) {
	checkGrams(t, []string{"a"}, 0, nil)
}

// checkGrams requires eachGram to yield want, in order, and gramCount
// to count it.
func checkGrams(t *testing.T, tokens []string, maxN int, want []string) {
	t.Helper()
	var got []string
	eachGram(tokens, maxN, nil, func(g []byte) { got = append(got, string(g)) })
	if !slices.Equal(got, want) {
		t.Errorf("eachGram(%q, %d) = %q, want %q", tokens, maxN, got, want)
	}
	if n := gramCount(len(tokens), maxN); n != len(want) {
		t.Errorf("gramCount(%d, %d) = %d, want %d", len(tokens), maxN, n, len(want))
	}
}

// TestTransformAllocs bounds the allocations of one Transform, at both
// token granularities: the hit list, the vector's two slices and the
// n-gram buffer, not one string per n-gram.
func TestTransformAllocs(t *testing.T) {
	train := []string{
		"SELECT TOP 10 objid, ra, dec FROM PhotoObj WHERE ra BETWEEN 180 AND 181",
		"SELECT z FROM SpecObj WHERE specobjid=122169136768973484",
		"SELECT objid FROM Galaxy WHERE r < 22 AND g - r > 0.4",
	}
	stmt := "SELECT p.objid, p.ra, p.dec FROM PhotoObj AS p WHERE p.r < 17.5 AND p.type = 3"
	for _, tok := range []struct {
		name string
		fn   func(string) []string
	}{{"chars", sqllex.Chars}, {"words", sqllex.Words}} {
		seqs := make([][]string, len(train))
		for i, q := range train {
			seqs[i] = tok.fn(q)
		}
		f := FitFeaturizer(seqs, 4, 0)
		tokens := tok.fn(stmt)
		if len(f.Transform(tokens).Idx) == 0 {
			t.Fatalf("%s: the statement shares no n-gram with the training set", tok.name)
		}
		if n := testing.AllocsPerRun(50, func() { f.Transform(tokens) }); n > 8 {
			t.Errorf("%s: %v allocations per Transform, want at most 8", tok.name, n)
		}
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

// ceLoss is the classification loss: cross-entropy over the scores.
func ceLoss(ys []int) func(i int, scores, dscores []float64) float64 {
	return func(i int, scores, dscores []float64) float64 {
		return nn.SoftmaxCEInto(scores, ys[i], dscores)
	}
}

// huberLoss is the regression loss on one output, delta = 1.
func huberLoss(ys []float64) func(i int, scores, dscores []float64) float64 {
	return func(i int, scores, dscores []float64) float64 {
		loss, d := nn.HuberLoss(scores[0], ys[i], 1)
		dscores[0] = d
		return loss
	}
}

func argmax(v []float64) int {
	best := 0
	for c := range v {
		if v[c] > v[best] {
			best = c
		}
	}
	return best
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
	m := NewLinear(2, f.NumFeatures())
	m.Fit(xs, 5, 0.5, rng, ceLoss(labels))
	correct := 0
	scores := make([]float64, m.Outputs)
	for i, x := range xs {
		if argmax(m.Scores(x, scores)) == labels[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(xs)) < 0.99 {
		t.Fatalf("separable task accuracy = %d/%d", correct, len(xs))
	}
}

func TestLogisticRegressionProbsSumToOne(t *testing.T) {
	m := NewLinear(3, 4)
	p := nn.Softmax(m.Scores(SparseVec{Idx: []int{0, 2}, Val: []float64{1, -1}}, make([]float64, m.Outputs)))
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
	m := NewLinear(1, 2)
	m.Fit(xs, 60, 0.5, rng, huberLoss(ys))
	var out [1]float64
	if p := m.Scores(xs[0], out[:])[0]; math.Abs(p-4) > 0.3 {
		t.Fatalf("pred = %v, want ~4", p)
	}
	if p := m.Scores(xs[1], out[:])[0]; math.Abs(p-1) > 0.3 {
		t.Fatalf("pred = %v, want ~1", p)
	}
}

func TestParamCounts(t *testing.T) {
	if p := NewLinear(3, 10).ParamCount(); p != 33 {
		t.Fatalf("3-output params = %d, want 33", p)
	}
	if p := NewLinear(1, 10).ParamCount(); p != 11 {
		t.Fatalf("1-output params = %d, want 11", p)
	}
}

// randomSparse draws n sparse vectors over features columns with up to
// 6 sorted unique indices each, some of them empty. Values are scaled
// by scale, so a large scale drives the scores far enough apart that
// gradients underflow to exactly 0.
func randomSparse(rng *rand.Rand, n, features int, scale float64) []SparseVec {
	xs := make([]SparseVec, n)
	for i := range xs {
		seen := map[int]bool{}
		for k := rng.Intn(7); k > 0; k-- {
			seen[rng.Intn(features)] = true
		}
		for idx := range seen {
			xs[i].Idx = append(xs[i].Idx, idx)
		}
		sort.Ints(xs[i].Idx)
		for range xs[i].Idx {
			xs[i].Val = append(xs[i].Val, scale*rng.NormFloat64())
		}
	}
	return xs
}

// TestLinearMatchesReference fits Linear and the two second stages it
// replaced (linref_test.go) on the same random sparse data and requires
// the same W, B and final-epoch loss bit for bit: cross-entropy on 2 to
// 7 outputs against LogisticRegression, Huber loss on one output against
// HuberRegression. Each case must see examples whose gradient is
// exactly 0, which Linear skips and HuberRegression applied.
func TestLinearMatchesReference(t *testing.T) {
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	// zeroCounting wraps a loss and counts the outputs whose gradient
	// is exactly 0.
	zeroCounting := func(loss func(int, []float64, []float64) float64, zeros *int) func(int, []float64, []float64) float64 {
		return func(i int, scores, dscores []float64) float64 {
			l := loss(i, scores, dscores)
			for _, g := range dscores {
				if g == 0 {
					*zeros++
				}
			}
			return l
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		features := 1 + rng.Intn(40)
		n := 20 + rng.Intn(80)
		epochs := 1 + rng.Intn(4)
		lr := 0.05 + rng.Float64()

		// Cross-entropy: scaled-up features push the softmax to exactly
		// 0 and 1, so some class gradients are exactly 0. The label
		// follows an example's first feature, so the fit can learn it.
		outputs := 2 + int(seed%6)
		xs := randomSparse(rng, n, features, 200)
		ys := make([]int, n)
		for i, x := range xs {
			if len(x.Idx) > 0 {
				ys[i] = x.Idx[0] % outputs
			}
		}
		ref := NewLogisticRegression(outputs, features)
		refLoss := ref.Fit(xs, ys, epochs, lr, rand.New(rand.NewSource(seed)))
		zeros := 0
		lin := NewLinear(outputs, features)
		loss := lin.Fit(xs, epochs, lr, rand.New(rand.NewSource(seed)), zeroCounting(ceLoss(ys), &zeros))
		if !same(lin.W, ref.W) || !same(lin.B, ref.B) || math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Errorf("seed %d: %d-output cross-entropy fit differs from LogisticRegression (loss %v, want %v)", seed, outputs, loss, refLoss)
		}
		if zeros == 0 {
			t.Errorf("seed %d: cross-entropy case saw no zero gradient", seed)
		}

		// Huber: the intercept starts at 2^60, whose ulp (256) is far
		// beyond what the weights add, so a target of exactly 2^60 has a
		// residual of exactly 0 and every other target a gradient of ±1.
		const b0 = 1 << 60
		xs = randomSparse(rng, n, features, 1)
		yf := make([]float64, n)
		for i := range yf {
			yf[i] = b0 + 256*float64(rng.Intn(3)-1)
		}
		href := NewHuberRegression(features)
		href.B = b0
		refLoss = href.Fit(xs, yf, epochs, lr, rand.New(rand.NewSource(seed)))
		zeros = 0
		lin = NewLinear(1, features)
		lin.B[0] = b0
		loss = lin.Fit(xs, epochs, lr, rand.New(rand.NewSource(seed)), zeroCounting(huberLoss(yf), &zeros))
		if !same(lin.W, href.W) || !same(lin.B, []float64{href.B}) || math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Errorf("seed %d: Huber fit (2^60 intercept) differs from HuberRegression (loss %v, want %v)", seed, loss, refLoss)
		}
		if zeros == 0 {
			t.Errorf("seed %d: Huber case saw no zero gradient", seed)
		}

		// Huber on ordinary targets: the warm-started intercept and the
		// quadratic and linear pieces of the loss.
		xs = randomSparse(rng, n, features, 1)
		for i := range yf {
			yf[i] = 3 * rng.NormFloat64()
		}
		href = NewHuberRegression(features)
		href.B = 0.25
		refLoss = href.Fit(xs, yf, epochs, lr, rand.New(rand.NewSource(seed)))
		lin = NewLinear(1, features)
		lin.B[0] = 0.25
		loss = lin.Fit(xs, epochs, lr, rand.New(rand.NewSource(seed)), huberLoss(yf))
		if !same(lin.W, href.W) || !same(lin.B, []float64{href.B}) || math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Errorf("seed %d: Huber fit differs from HuberRegression (loss %v, want %v)", seed, loss, refLoss)
		}
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
