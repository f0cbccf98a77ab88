package experiments

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// PropertyStats pairs a structural property with its distribution
// summary (the caption statistics of Figures 3 and 4).
type PropertyStats struct {
	Name    string
	Summary metrics.Summary
}

// FigureStructural reproduces Figure 3 (SDSS) or Figure 4 (SQLShare):
// the distribution statistics of the ten syntactic properties.
func FigureStructural(env *Env, sdss bool) ([]PropertyStats, string) {
	analysis := env.sqlShareAnalysis
	title := "Figure 4: structural properties of SQLShare query statements"
	if sdss {
		analysis = env.sdssAnalysis
		title = "Figure 3: structural properties of SDSS query statements"
	}
	a := analysis()
	out := make([]PropertyStats, len(sqlparse.FeatureNames))
	for j, name := range sqlparse.FeatureNames {
		out[j] = PropertyStats{Name: name, Summary: a.FeatureSummaries[j]}
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-28s %10s %10s %8s %10s %8s %8s\n",
		"Property", "mean", "std", "min", "max", "mode", "median")
	for _, ps := range out {
		s := ps.Summary
		fmt.Fprintf(&b, "%-28s %10.2f %10.2f %8.0f %10.0f %8.2f %8.2f\n",
			ps.Name, s.Mean, s.Std, s.Min, s.Max, s.Mode, s.Median)
	}
	return out, b.String()
}

// Figure6Result holds the label distributions of Figure 6.
type Figure6Result struct {
	ErrorCounts   map[string]int
	SessionCounts map[string]int
	SDSSAnswer    metrics.Summary
	SDSSCPU       metrics.Summary
	SQLShareCPU   metrics.Summary
}

// Figure6 reproduces the label distributions (classification and
// regression) of Figure 6.
func Figure6(env *Env) (Figure6Result, string) {
	aSDSS := env.sdssAnalysis()
	aSQL := env.sqlShareAnalysis()
	res := Figure6Result{
		ErrorCounts:   aSDSS.ErrorClassCounts,
		SessionCounts: aSDSS.SessionClassCounts,
		SDSSAnswer:    aSDSS.AnswerSizeSummary,
		SDSSCPU:       aSDSS.CPUTimeSummary,
		SQLShareCPU:   aSQL.CPUTimeSummary,
	}
	var b strings.Builder
	b.WriteString("Figure 6: label distributions\n(a) SDSS error classes:\n")
	total := 0
	for _, c := range workload.ErrorClassNames {
		total += res.ErrorCounts[c]
	}
	for _, c := range workload.ErrorClassNames {
		fmt.Fprintf(&b, "    %-12s %8d (%.2f%%)\n", c, res.ErrorCounts[c],
			100*float64(res.ErrorCounts[c])/float64(max(total, 1)))
	}
	b.WriteString("(b) SDSS session classes:\n")
	for _, c := range workload.SessionClassNames {
		fmt.Fprintf(&b, "    %-12s %8d (%.2f%%)\n", c, res.SessionCounts[c],
			100*float64(res.SessionCounts[c])/float64(max(total, 1)))
	}
	writeSummary := func(name string, s metrics.Summary) {
		fmt.Fprintf(&b, "%s: mean=%.2f std=%.2f min=%.0f max=%.0f mode=%.2f median=%.2f\n",
			name, s.Mean, s.Std, s.Min, s.Max, s.Mode, s.Median)
	}
	writeSummary("(c) SDSS answer size (#tuples)", res.SDSSAnswer)
	writeSummary("(d) SDSS CPU time (sec)", res.SDSSCPU)
	writeSummary("(e) SQLShare CPU time (sec)", res.SQLShareCPU)
	return res, b.String()
}

// Figure7 reproduces the Pearson correlation matrices of the ten
// structural properties (SDSS and SQLShare).
func Figure7(env *Env, sdss bool) ([][]float64, string) {
	analysis := env.sqlShareAnalysis
	name := "SQLShare"
	if sdss {
		analysis = env.sdssAnalysis
		name = "SDSS"
	}
	m := analysis().Correlation
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 (%s): correlation matrix of structural properties\n", name)
	b.WriteString(strings.Repeat(" ", 14))
	for j := range sqlparse.FeatureNames {
		fmt.Fprintf(&b, " p%-5d", j+1)
	}
	b.WriteString("\n")
	for i, row := range m {
		short := sqlparse.FeatureNames[i]
		if len(short) > 13 {
			short = short[:13]
		}
		fmt.Fprintf(&b, "%-14s", short)
		for _, v := range row {
			fmt.Fprintf(&b, " %6.2f", v)
		}
		b.WriteString("\n")
	}
	return m, b.String()
}

// Figure8Result holds per-session-class breakdowns of the four
// quantities plotted in Figure 8.
type Figure8Result struct {
	AnswerSize []workload.ClassBreakdown
	CPUTime    []workload.ClassBreakdown
	NumChars   []workload.ClassBreakdown
	NumWords   []workload.ClassBreakdown
}

// Figure8 reproduces the SDSS per-session-class box statistics.
func Figure8(env *Env) (Figure8Result, string) {
	a := env.sdssAnalysis()
	res := Figure8Result{
		AnswerSize: workload.BySessionClass(env.SDSS, a, func(item workload.Item, _ sqlparse.Features) (float64, bool) {
			return item.AnswerSize, item.AnswerSize >= 0
		}),
		CPUTime: workload.BySessionClass(env.SDSS, a, func(item workload.Item, _ sqlparse.Features) (float64, bool) {
			return item.CPUTime, item.CPUTime >= 0
		}),
		NumChars: workload.BySessionClass(env.SDSS, a, func(_ workload.Item, f sqlparse.Features) (float64, bool) {
			return float64(f.NumChars), true
		}),
		NumWords: workload.BySessionClass(env.SDSS, a, func(_ workload.Item, f sqlparse.Features) (float64, bool) {
			return float64(f.NumWords), true
		}),
	}
	var b strings.Builder
	b.WriteString("Figure 8: SDSS analysis by session class (Q1 / median / Q3 / mean)\n")
	write := func(name string, rows []workload.ClassBreakdown) {
		fmt.Fprintf(&b, "(%s)\n", name)
		for _, r := range rows {
			fmt.Fprintf(&b, "    %-12s n=%-6d %12.2f %12.2f %12.2f %14.2f\n",
				r.Class, r.N, r.Q1, r.Median, r.Q3, r.Mean)
		}
	}
	write("a: answer size", res.AnswerSize)
	write("b: CPU time", res.CPUTime)
	write("c: number of characters", res.NumChars)
	write("d: number of words", res.NumWords)
	return res, b.String()
}

// Figure12Row is one model's MSE by session class (Figure 12).
type Figure12Row struct {
	Model   string
	Overall float64
	ByClass []float64 // label order; NaN when the class is absent
}

// Figure12 reproduces MSE of the regression problems by session class
// in Homogeneous Instance.
func Figure12(env *Env, task core.Task) ([]Figure12Row, error) {
	test := env.SDSSSplit.Test
	names := append([]string{"median"}, tableModels...)
	models, err := env.TrainAll(names, task, HomoInstance)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure12Row, 0, len(names))
	for _, name := range names {
		ev := evalRegressor(models[name], task, test)
		row := Figure12Row{Model: name, Overall: ev.MSE, ByClass: make([]float64, workload.NumSessionClasses)}
		counts := make([]int, workload.NumSessionClasses)
		sums := make([]float64, workload.NumSessionClasses)
		for i, item := range test {
			d := ev.LogPred[i] - ev.LogTrue[i]
			sums[int(item.Class)] += d * d
			counts[int(item.Class)]++
		}
		for c := range row.ByClass {
			if counts[c] > 0 {
				row.ByClass[c] = sums[c] / float64(counts[c])
			} else {
				row.ByClass[c] = math.NaN()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure12 formats Figure 12.
func RenderFigure12(task string, rows []Figure12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: MSE of %s prediction by session class (SDSS)\n", task)
	fmt.Fprintf(&b, "%-9s %8s", "Model", "MSE")
	for _, c := range workload.SessionClassNames {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %8.4f", r.Model, r.Overall)
		for _, v := range r.ByClass {
			if math.IsNaN(v) {
				fmt.Fprintf(&b, " %10s", "-")
			} else {
				fmt.Fprintf(&b, " %10.4f", v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BinnedError is the mean squared error of items falling in one bin of
// a structural property (the curves of Figures 13 and 14).
type BinnedError struct {
	Lower float64 // bin lower bound
	N     int
	MSE   float64
}

// Figure13Result holds the error analysis of answer-size prediction by
// structural properties.
type Figure13Result struct {
	// ByModel[model][property] is the binned error curve; properties
	// indexed as chars=0, functions=1, joins=2.
	ByModel map[string][3][]BinnedError
	// CCNNByNestedness[level] and CCNNByNestedAgg[0/1] reproduce
	// Figures 13d/13e.
	CCNNByNestedness []BinnedError
	CCNNByNestedAgg  []BinnedError
}

// Figure13 reproduces the error analysis of answer size prediction on
// SDSS by number of characters, functions, joins, nestedness, and
// nested aggregation.
func Figure13(env *Env) (*Figure13Result, error) {
	test := env.SDSSSplit.Test
	feats := make([]sqlparse.Features, len(test))
	for i, item := range test {
		feats[i] = sqlparse.ExtractFeatures(item.Statement)
	}
	names := append([]string{"median"}, tableModels...)
	models, err := env.TrainAll(names, core.AnswerSizePrediction, HomoInstance)
	if err != nil {
		return nil, err
	}
	res := &Figure13Result{ByModel: map[string][3][]BinnedError{}}
	for _, name := range names {
		ev := evalRegressor(models[name], core.AnswerSizePrediction, test)
		sq := squaredErrors(ev)
		var curves [3][]BinnedError
		curves[0] = binErrors(sq, feats, byLog, func(f sqlparse.Features) int { return f.NumChars })
		curves[1] = binErrors(sq, feats, byLog, func(f sqlparse.Features) int { return f.NumFunctions })
		curves[2] = binErrors(sq, feats, byLog, func(f sqlparse.Features) int { return f.NumJoins })
		res.ByModel[name] = curves
		if name == "ccnn" {
			res.CCNNByNestedness = binErrors(sq, feats, byValue, func(f sqlparse.Features) int { return f.NestednessLevel })
			res.CCNNByNestedAgg = binErrors(sq, feats, byValue, func(f sqlparse.Features) int {
				if f.NestedAggregation {
					return 1
				}
				return 0
			})
		}
	}
	return res, nil
}

// Figure14Result holds CPU-time error analysis across the three
// problem settings (Figure 14).
type Figure14Result struct {
	Setting    Setting
	MSEByModel map[string]float64
	CharCurves map[string][]BinnedError
	CCNNByNest []BinnedError
}

// Figure14 reproduces the CPU-time error analysis for one setting.
func Figure14(env *Env, setting Setting) (*Figure14Result, error) {
	test := env.SplitFor(setting).Test
	feats := make([]sqlparse.Features, len(test))
	for i, item := range test {
		feats[i] = sqlparse.ExtractFeatures(item.Statement)
	}
	names := append([]string{"median"}, tableModels...)
	models, err := env.TrainAll(names, core.CPUTimePrediction, setting)
	if err != nil {
		return nil, err
	}
	res := &Figure14Result{
		Setting:    setting,
		MSEByModel: map[string]float64{},
		CharCurves: map[string][]BinnedError{},
	}
	for _, name := range names {
		ev := evalRegressor(models[name], core.CPUTimePrediction, test)
		sq := squaredErrors(ev)
		res.MSEByModel[name] = ev.MSE
		res.CharCurves[name] = binErrors(sq, feats, byLog, func(f sqlparse.Features) int { return f.NumChars })
		if name == "ccnn" {
			res.CCNNByNest = binErrors(sq, feats, byValue, func(f sqlparse.Features) int { return f.NestednessLevel })
		}
	}
	return res, nil
}

func squaredErrors(ev core.EvalRegression) []float64 {
	sq := make([]float64, len(ev.LogPred))
	for i := range sq {
		d := ev.LogPred[i] - ev.LogTrue[i]
		sq[i] = d * d
	}
	return sq
}

// binning maps a non-negative property count to a non-negative bin
// index, and a bin index to the bin's lower bound.
type binning struct {
	bin   func(count int) int
	lower func(bin int) float64
}

var (
	// byLog bins counts in powers of two: bin b >= 1 holds [2^b, 2^(b+1)),
	// bin 0 holds 0 and 1.
	byLog = binning{
		bin:   func(c int) int { return max(bits.Len(uint(c))-1, 0) },
		lower: func(b int) float64 { return math.Ldexp(1, b) },
	}
	// byValue bins counts by their exact value.
	byValue = binning{
		bin:   func(c int) int { return c },
		lower: func(b int) float64 { return float64(b) },
	}
)

// binErrors buckets items by the binning of count, a non-negative
// property count of each statement, and averages the squared errors
// per non-empty bin, in bin order.
func binErrors(sq []float64, feats []sqlparse.Features, by binning, count func(sqlparse.Features) int) []BinnedError {
	var n []int
	var sum []float64
	for i, f := range feats {
		b := by.bin(count(f))
		for len(n) <= b {
			n, sum = append(n, 0), append(sum, 0)
		}
		n[b]++
		sum[b] += sq[i]
	}
	var out []BinnedError
	for b := range n {
		if n[b] > 0 {
			out = append(out, BinnedError{Lower: by.lower(b), N: n[b], MSE: sum[b] / float64(n[b])})
		}
	}
	return out
}

// RenderBinnedCurve formats one binned-error curve.
func RenderBinnedCurve(name string, curve []BinnedError) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", name)
	for _, bin := range curve {
		fmt.Fprintf(&b, "    >=%-10.0f n=%-6d MSE=%.4f\n", bin.Lower, bin.N, bin.MSE)
	}
	return b.String()
}

// Figure20 reproduces the statement repetition histogram of the SDSS
// extraction (Appendix B.3).
func Figure20(env *Env) (map[string]int, string) {
	h := env.SDSS.RepetitionHistogram()
	var b strings.Builder
	b.WriteString("Figure 20: repetition of query statements in the extracted SDSS workload\n")
	for _, bucket := range workload.RepetitionBuckets {
		fmt.Fprintf(&b, "    %-10s %8d\n", bucket, h[bucket])
	}
	return h, b.String()
}
