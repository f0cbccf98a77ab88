package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); !almost(got, 2.0/3.0) {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	if Accuracy([]int{1}, []int{1, 2}) != 0 {
		t.Fatal("mismatched lengths should be 0")
	}
}

func TestPerClassF(t *testing.T) {
	pred := []int{0, 0, 1, 1, 1}
	truth := []int{0, 1, 1, 1, 0}
	stats := PerClassF(pred, truth, 2)
	// class 0: support 2, predicted 2, correct 1 -> P=0.5 R=0.5 F=0.5
	if !almost(stats[0].F1, 0.5) {
		t.Fatalf("F0 = %v, want 0.5", stats[0].F1)
	}
	// class 1: support 3, predicted 3, correct 2 -> P=2/3 R=2/3 F=2/3
	if !almost(stats[1].F1, 2.0/3.0) {
		t.Fatalf("F1 = %v, want 2/3", stats[1].F1)
	}
}

func TestPerClassFZeroSupport(t *testing.T) {
	stats := PerClassF([]int{0, 0}, []int{0, 0}, 3)
	if stats[2].F1 != 0 || stats[2].Support != 0 {
		t.Fatal("unused class should have zero stats")
	}
}

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{1, 4}); !almost(got, 2) {
		t.Fatalf("MSE = %v, want 2", got)
	}
}

func TestHuberQuadraticRegion(t *testing.T) {
	if !almost(Huber(0.5, 1), 0.125) {
		t.Fatal("Huber(0.5) != 0.125")
	}
}

func TestHuberLinearRegion(t *testing.T) {
	if !almost(Huber(3, 1), 2.5) {
		t.Fatalf("Huber(3) = %v, want 2.5", Huber(3, 1))
	}
	if !almost(Huber(-3, 1), 2.5) {
		t.Fatal("Huber should be symmetric")
	}
}

// Property: Huber is continuous at the threshold and non-negative.
func TestHuberProperties(t *testing.T) {
	f := func(r float64) bool {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return true
		}
		return Huber(r, 1) >= 0 && almost(Huber(r, 1), Huber(-r, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !almost(Huber(1, 1), 0.5) {
		t.Fatal("discontinuity at threshold")
	}
}

func TestCrossEntropyMean(t *testing.T) {
	probs := [][]float64{{0.5, 0.5}, {0.9, 0.1}}
	truth := []int{0, 0}
	want := (-math.Log(0.5) - math.Log(0.9)) / 2
	if got := CrossEntropyMean(probs, truth); !almost(got, want) {
		t.Fatalf("CE = %v, want %v", got, want)
	}
}

func TestCrossEntropyClampsZero(t *testing.T) {
	got := CrossEntropyMean([][]float64{{0, 1}}, []int{0})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatal("zero probability must be clamped")
	}
}

func TestQError(t *testing.T) {
	if !almost(QError(100, 50), 2) {
		t.Fatal("QError(100,50) != 2")
	}
	if !almost(QError(50, 100), 2) {
		t.Fatal("QError is symmetric in ratio")
	}
	if !almost(QError(0, 0), 1) {
		t.Fatal("QError floors at 1")
	}
	if !almost(QError(-5, 3), 3) {
		t.Fatal("negative labels floor to 1")
	}
}

// Property: QError >= 1 always.
func TestQErrorLowerBound(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return QError(a, b) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQErrorPercentiles(t *testing.T) {
	truth := []float64{1, 1, 1, 1}
	pred := []float64{1, 2, 4, 8}
	out := QErrorPercentiles(truth, pred, []float64{0, 100})
	if !almost(out[0], 1) || !almost(out[1], 8) {
		t.Fatalf("percentiles = %v", out)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if got := Percentile(vals, 50); !almost(got, 2.5) {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := Percentile(vals, 0); !almost(got, 1) {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(vals, 100); !almost(got, 4) {
		t.Fatalf("p100 = %v", got)
	}
}

func TestMedianSharedDefinition(t *testing.T) {
	// Even length interpolates the two middle values; odd length takes
	// the middle element; both must equal Percentile(values, 50).
	for _, vals := range [][]float64{
		{1, 2, 3, 4},
		{3, 1, 2},
		{5},
		{2, 4},
	} {
		if got, want := Median(vals), Percentile(vals, 50); !almost(got, want) {
			t.Fatalf("Median(%v) = %v, Percentile 50 = %v", vals, got, want)
		}
	}
	if got := Median([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("even-length median = %v, want 2.5", got)
	}
}

// TestPerClassFIncludesEmptyClasses pins the documented contract: one
// entry per class in order, zero-valued for classes with no support
// and no predictions.
func TestPerClassFIncludesEmptyClasses(t *testing.T) {
	stats := PerClassF([]int{0, 0}, []int{0, 1}, 4)
	if len(stats) != 4 {
		t.Fatalf("len = %d, want 4", len(stats))
	}
	for c, s := range stats {
		if s.Class != c {
			t.Fatalf("stats[%d].Class = %d", c, s.Class)
		}
	}
	if stats[2].Support != 0 || stats[2].Predicted != 0 || stats[2].F1 != 0 {
		t.Fatalf("empty class stats = %+v, want zeros", stats[2])
	}
	if stats[0].Precision != 0.5 || stats[0].Recall != 1 {
		t.Fatalf("class 0 = %+v", stats[0])
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 2, 3})
	if s.N != 4 || !almost(s.Mean, 2) || !almost(s.Min, 1) || !almost(s.Max, 3) {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Mode, 2) {
		t.Fatalf("mode = %v, want 2", s.Mode)
	}
	if !almost(s.Median, 2) {
		t.Fatalf("median = %v, want 2", s.Median)
	}
	if !almost(s.Std, math.Sqrt(0.5)) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("empty summary")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := PearsonCorrelation(x, y); !almost(got, 1) {
		t.Fatalf("corr = %v, want 1", got)
	}
	yneg := []float64{8, 6, 4, 2}
	if got := PearsonCorrelation(x, yneg); !almost(got, -1) {
		t.Fatalf("corr = %v, want -1", got)
	}
	if got := PearsonCorrelation(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant series corr = %v, want 0", got)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	data := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	m := CorrelationMatrix(data)
	if !almost(m[0][0], 1) || !almost(m[1][1], 1) {
		t.Fatal("diagonal must be 1")
	}
	if !almost(m[0][1], 1) || !almost(m[1][0], 1) {
		t.Fatalf("off-diagonal = %v", m[0][1])
	}
}

// Property: correlation matrix is symmetric with unit diagonal.
func TestCorrelationMatrixProperties(t *testing.T) {
	f := func(seed int64) bool {
		n, d := 20, 4
		data := make([][]float64, n)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%1000) / 100
		}
		for i := range data {
			data[i] = make([]float64, d)
			for j := range data[i] {
				data[i][j] = next()
			}
		}
		m := CorrelationMatrix(data)
		for i := 0; i < d; i++ {
			if !almost(m[i][i], 1) {
				return false
			}
			for j := 0; j < d; j++ {
				if !almost(m[i][j], m[j][i]) {
					return false
				}
				if m[i][j] > 1+1e-9 || m[i][j] < -1-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogTransformRoundTrip(t *testing.T) {
	values := []float64{-1, 0, 1, 100, 966278220}
	transformed, min := LogTransform(values)
	if min != -1 {
		t.Fatalf("min = %v", min)
	}
	if !almost(transformed[0], 0) {
		t.Fatalf("min value should transform to ln(1)=0, got %v", transformed[0])
	}
	for i, tr := range transformed {
		back := InverseLogTransform(tr, min)
		if math.Abs(back-values[i]) > 1e-6*math.Max(1, math.Abs(values[i])) {
			t.Fatalf("round trip %v -> %v -> %v", values[i], tr, back)
		}
	}
}

// Property: LogTransform output is monotone in the input.
func TestLogTransformMonotone(t *testing.T) {
	values := []float64{5, 1, 3, 2, 4}
	transformed, _ := LogTransform(values)
	for i := range values {
		for j := range values {
			if values[i] < values[j] && transformed[i] >= transformed[j] {
				t.Fatalf("not monotone: %v %v", values, transformed)
			}
		}
	}
}
