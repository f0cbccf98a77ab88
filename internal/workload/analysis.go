package workload

import (
	"repro/internal/metrics"
	"repro/internal/simdb"
	"repro/internal/sqlparse"
)

// Analysis is the structural and label analysis of Section 4.3: the ten
// syntactic-property distributions (Figures 3/4), their correlation
// matrix (Figure 7), statement-type breakdown, and label distributions
// (Figure 6).
type Analysis struct {
	// FeatureVectors[i] is the ten-property vector of Items[i].
	FeatureVectors [][]float64
	// FeatureSummaries[j] summarizes property j across the workload.
	FeatureSummaries []metrics.Summary
	// Correlation is the 10x10 Pearson matrix (Figure 7).
	Correlation [][]float64
	// StatementTypes counts statements by verb.
	StatementTypes map[string]int
	// ErrorClassCounts and SessionClassCounts are label histograms.
	ErrorClassCounts   map[string]int
	SessionClassCounts map[string]int
	// AnswerSizeSummary and CPUTimeSummary describe the regression
	// labels (only successful queries contribute, matching Figure 6c/d).
	AnswerSizeSummary metrics.Summary
	CPUTimeSummary    metrics.Summary
	// Features per item for downstream breakdowns.
	Features []sqlparse.Features
}

// Analyze computes the full workload analysis.
func Analyze(w *Workload) *Analysis {
	a := &Analysis{
		StatementTypes:     map[string]int{},
		ErrorClassCounts:   map[string]int{},
		SessionClassCounts: map[string]int{},
	}
	var answers, cpus []float64
	for _, item := range w.Items {
		f := sqlparse.ExtractFeatures(item.Statement)
		a.Features = append(a.Features, f)
		a.FeatureVectors = append(a.FeatureVectors, f.Vector())
		a.StatementTypes[f.StatementType]++
		a.ErrorClassCounts[item.ErrorClass.String()]++
		a.SessionClassCounts[item.Class.String()]++
		if item.ErrorClass == simdb.Success {
			answers = append(answers, item.AnswerSize)
			cpus = append(cpus, item.CPUTime)
		}
	}
	numProps := len(sqlparse.FeatureNames)
	a.FeatureSummaries = make([]metrics.Summary, numProps)
	for j := 0; j < numProps; j++ {
		col := make([]float64, len(a.FeatureVectors))
		for i, v := range a.FeatureVectors {
			col[i] = v[j]
		}
		a.FeatureSummaries[j] = metrics.Summarize(col)
	}
	a.Correlation = metrics.CorrelationMatrix(a.FeatureVectors)
	a.AnswerSizeSummary = metrics.Summarize(answers)
	a.CPUTimeSummary = metrics.Summarize(cpus)
	return a
}

// ClassBreakdown holds per-session-class distributions of a quantity
// (Figure 8): quartiles, median, and mean per class.
type ClassBreakdown struct {
	Class  string
	N      int
	Q1     float64
	Median float64
	Q3     float64
	Mean   float64
}

// BySessionClass computes the Figure 8 box-plot statistics of the
// selected quantity for each session class. The value function maps an
// item (and its features) to the plotted quantity; items for which ok
// is false are skipped.
func BySessionClass(w *Workload, a *Analysis, value func(item Item, f sqlparse.Features) (float64, bool)) []ClassBreakdown {
	groups := make(map[SessionClass][]float64)
	for i, item := range w.Items {
		v, ok := value(item, a.Features[i])
		if !ok {
			continue
		}
		groups[item.Class] = append(groups[item.Class], v)
	}
	var out []ClassBreakdown
	for c := SessionClass(0); c < NumSessionClasses; c++ {
		vals := groups[c]
		b := ClassBreakdown{Class: c.String(), N: len(vals)}
		if len(vals) > 0 {
			b.Q1 = metrics.Percentile(vals, 25)
			b.Median = metrics.Percentile(vals, 50)
			b.Q3 = metrics.Percentile(vals, 75)
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			b.Mean = sum / float64(len(vals))
		}
		out = append(out, b)
	}
	return out
}
