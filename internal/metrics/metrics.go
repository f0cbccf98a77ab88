// Package metrics implements the evaluation measures used in Section 6
// of the paper: accuracy, per-class precision/recall/F-measure, mean
// cross-entropy and Huber losses, mean squared error, and the qerror
// quantiles of cardinality-estimation quality.
package metrics

import (
	"math"
	"sort"
)

// Accuracy is the fraction of predictions equal to the true label.
func Accuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// ClassStats holds per-class counts and derived measures.
type ClassStats struct {
	Class     int
	Support   int // number of true instances of the class
	Predicted int // number of predictions of the class
	Correct   int
	Precision float64
	Recall    float64
	F1        float64
}

// PerClassF computes per-class precision, recall, and F-measure
// (Section 6.1): FC = 2*P*R/(P+R). The result always has one entry per
// class in [0, numClasses), in class order; classes with no support
// and no predictions are included with zero counts and zero
// precision/recall/F1 (callers index the result by class id, so
// nothing is ever omitted). Labels outside [0, numClasses) are
// ignored.
func PerClassF(pred, truth []int, numClasses int) []ClassStats {
	stats := make([]ClassStats, numClasses)
	for c := range stats {
		stats[c].Class = c
	}
	for i := range truth {
		if truth[i] >= 0 && truth[i] < numClasses {
			stats[truth[i]].Support++
			if pred[i] == truth[i] {
				stats[truth[i]].Correct++
			}
		}
		if pred[i] >= 0 && pred[i] < numClasses {
			stats[pred[i]].Predicted++
		}
	}
	for c := range stats {
		s := &stats[c]
		if s.Predicted > 0 {
			s.Precision = float64(s.Correct) / float64(s.Predicted)
		}
		if s.Support > 0 {
			s.Recall = float64(s.Correct) / float64(s.Support)
		}
		if s.Precision+s.Recall > 0 {
			s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
		}
	}
	return stats
}

// MSE is the mean squared error between predictions and (typically
// log-transformed) labels.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return sum / float64(len(pred))
}

// HuberLossMean is the mean Huber loss with threshold delta (the paper
// uses the standard delta = 1 hybrid of l2 for small residuals and l1
// for large residuals).
func HuberLossMean(pred, truth []float64, delta float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	sum := 0.0
	for i := range pred {
		sum += Huber(pred[i]-truth[i], delta)
	}
	return sum / float64(len(pred))
}

// Huber is the pointwise Huber loss h(r) = 0.5 r^2 for |r| <= delta and
// delta*(|r| - 0.5*delta) otherwise.
func Huber(r, delta float64) float64 {
	a := math.Abs(r)
	if a <= delta {
		return 0.5 * r * r
	}
	return delta * (a - 0.5*delta)
}

// CrossEntropyMean is the mean negative log-probability of the true
// class given per-instance probability distributions.
func CrossEntropyMean(probs [][]float64, truth []int) float64 {
	if len(probs) != len(truth) || len(probs) == 0 {
		return 0
	}
	sum := 0.0
	for i, p := range probs {
		c := truth[i]
		q := 1e-12
		if c >= 0 && c < len(p) {
			q = math.Max(p[c], 1e-12)
		}
		sum += -math.Log(q)
	}
	return sum / float64(len(probs))
}

// QError is the quality-of-estimate factor max(y/yhat, yhat/y) from
// Leis et al., used by the paper for answer-size and CPU-time
// predictions. Inputs are raw (not log) values; both are floored at 1
// so the measure is defined for zero labels.
func QError(truth, pred float64) float64 {
	y := math.Max(truth, 1)
	yh := math.Max(pred, 1)
	return math.Max(y/yh, yh/y)
}

// QErrorPercentiles returns qerror values at the requested percentiles
// (0-100) over all (truth, pred) pairs.
func QErrorPercentiles(truth, pred []float64, percentiles []float64) []float64 {
	qs := make([]float64, len(truth))
	for i := range truth {
		qs[i] = QError(truth[i], pred[i])
	}
	sort.Float64s(qs)
	out := make([]float64, len(percentiles))
	for i, p := range percentiles {
		out[i] = percentileSorted(qs, p)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	// Nearest-rank with linear interpolation.
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentile returns the p-th percentile (0-100) of values.
func Percentile(values []float64, p float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// Median returns the 50th percentile of values, interpolating the two
// middle elements for even-length input. It is the single median
// definition shared by Summarize, the core median baseline, and
// Percentile(values, 50) — by construction they cannot disagree.
func Median(values []float64) float64 {
	return Percentile(values, 50)
}

// Summary holds the descriptive statistics reported in the paper's
// distribution plots (Figures 3, 4, 6): mean, standard deviation, min,
// max, mode, and median.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Mode   float64
	Median float64
}

// Summarize computes a Summary over values. Mode is computed over the
// values rounded to two decimals (labels in the workloads are discrete
// or near-discrete).
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if len(values) == 0 {
		return s
	}
	s.Min, s.Max = values[0], values[0]
	sum := 0.0
	counts := make(map[float64]int)
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		counts[math.Round(v*100)/100]++
	}
	s.Mean = sum / float64(len(values))
	varSum := 0.0
	for _, v := range values {
		d := v - s.Mean
		varSum += d * d
	}
	s.Std = math.Sqrt(varSum / float64(len(values)))
	best, bestCount := 0.0, -1
	keys := make([]float64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	for _, k := range keys {
		if counts[k] > bestCount {
			best, bestCount = k, counts[k]
		}
	}
	s.Mode = best
	s.Median = Median(values)
	return s
}

// PearsonCorrelation returns the Pearson correlation coefficient of two
// equal-length series, or 0 when either series is constant.
func PearsonCorrelation(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// CorrelationMatrix computes the Pearson correlation matrix of columns,
// where data[i] is the i-th observation's feature vector.
func CorrelationMatrix(data [][]float64) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	d := len(data[0])
	cols := make([][]float64, d)
	for j := 0; j < d; j++ {
		cols[j] = make([]float64, len(data))
		for i := range data {
			cols[j][i] = data[i][j]
		}
	}
	m := make([][]float64, d)
	for i := 0; i < d; i++ {
		m[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			if i == j {
				m[i][j] = 1
				continue
			}
			if j < i {
				m[i][j] = m[j][i]
				continue
			}
			m[i][j] = PearsonCorrelation(cols[i], cols[j])
		}
	}
	return m
}

// LogTransform applies the paper's label transform
// y' = ln(y + eps - min(y)) with eps = 1 (Section 4.4.1), returning the
// transformed labels and the minimum used (needed to invert).
func LogTransform(values []float64) (transformed []float64, min float64) {
	if len(values) == 0 {
		return nil, 0
	}
	min = values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = math.Log(v + 1 - min)
	}
	return out, min
}

// InverseLogTransform inverts LogTransform for a single value.
func InverseLogTransform(t, min float64) float64 {
	return math.Exp(t) - 1 + min
}
