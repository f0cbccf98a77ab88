package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// tableModels is the paper's model ordering in Tables 2, 4, and 5.
var tableModels = []string{"ctfidf", "ccnn", "clstm", "wtfidf", "wcnn", "wlstm"}

// Table1Row is one column of the paper's Table 1 (dataset sizes).
type Table1Row struct {
	Setting                   string
	Total, Train, Valid, Test int
}

// Table1 reports the number of queries and the data split for the
// three settings.
func Table1(env *Env) ([]Table1Row, string) {
	rows := make([]Table1Row, 0, 3)
	for _, s := range []Setting{HomoInstance, HomoSchema, HeteroSchema} {
		split := env.SplitFor(s)
		rows = append(rows, Table1Row{
			Setting: s.String(),
			Total:   len(split.Train) + len(split.Valid) + len(split.Test),
			Train:   len(split.Train),
			Valid:   len(split.Valid),
			Test:    len(split.Test),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: number of queries and data split\n")
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %8s\n", "Setting", "Total", "Train", "Valid", "Test")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %8d %8d %8d %8d\n", r.Setting, r.Total, r.Train, r.Valid, r.Test)
	}
	return rows, b.String()
}

// Table2Row is one model's row in Table 2: error classification, CPU
// time, and answer size prediction in Homogeneous Instance (SDSS).
type Table2Row struct {
	Model                                   string
	V, P                                    int
	Accuracy, FSevere, FSuccess, FNonSevere float64
	ErrLoss                                 float64
	CPULoss, AnsLoss                        float64
}

// Table2 reproduces Table 2 on the SDSS-like workload.
func Table2(env *Env) ([]Table2Row, error) {
	test := env.SDSSSplit.Test
	names := append([]string{}, tableModels...)

	errModels, err := env.TrainAll(append(names, "mfreq"), core.ErrorClassification, HomoInstance)
	if err != nil {
		return nil, err
	}
	cpuModels, err := env.TrainAll(append(names, "median"), core.CPUTimePrediction, HomoInstance)
	if err != nil {
		return nil, err
	}
	ansModels, err := env.TrainAll(append(names, "median"), core.AnswerSizePrediction, HomoInstance)
	if err != nil {
		return nil, err
	}

	order := append([]string{"baseline"}, names...)
	rows := make([]Table2Row, 0, len(order))
	for _, name := range order {
		errName, regName := name, name
		if name == "baseline" {
			errName, regName = "mfreq", "median"
		}
		em := errModels[errName]
		ev := evalClassifier(em, core.ErrorClassification, test)
		row := Table2Row{
			Model:      name,
			V:          em.V,
			P:          em.P,
			Accuracy:   ev.Accuracy,
			FSevere:    ev.PerClass[0].F1,
			FSuccess:   ev.PerClass[1].F1,
			FNonSevere: ev.PerClass[2].F1,
			ErrLoss:    ev.Loss,
		}
		row.CPULoss = evalRegressor(cpuModels[regName], core.CPUTimePrediction, test).Loss
		row.AnsLoss = evalRegressor(ansModels[regName], core.AnswerSizePrediction, test).Loss
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 formats Table 2 like the paper.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: error classification / CPU time / answer size (Homogeneous Instance, SDSS)\n")
	fmt.Fprintf(&b, "%-9s %8s %9s %9s %8s %9s %11s %8s %8s %8s\n",
		"Model", "v", "p", "Accuracy", "Fsevere", "Fsuccess", "Fnon_severe", "ErrLoss", "CPULoss", "AnsLoss")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %8d %9d %9.4f %8.4f %9.4f %11.4f %8.4f %8.4f %8.4f\n",
			r.Model, r.V, r.P, r.Accuracy, r.FSevere, r.FSuccess, r.FNonSevere,
			r.ErrLoss, r.CPULoss, r.AnsLoss)
	}
	return b.String()
}

// QErrorRow is one model's qerror percentiles (Tables 3, 6, 7).
type QErrorRow struct {
	Model       string
	Percentiles []float64
	Values      []float64
}

// Table3 reproduces the answer-size qerror percentiles on SDSS
// (Table 3), percentiles 50-95.
func Table3(env *Env) ([]QErrorRow, error) {
	return qerrorTable(env, core.AnswerSizePrediction, HomoInstance,
		[]float64{50, 75, 80, 85, 90, 95})
}

func qerrorTable(env *Env, task core.Task, setting Setting, percentiles []float64) ([]QErrorRow, error) {
	test := env.SplitFor(setting).Test
	names := append([]string{"median"}, tableModels...)
	models, err := env.TrainAll(names, task, setting)
	if err != nil {
		return nil, err
	}
	rows := make([]QErrorRow, 0, len(names))
	for _, name := range names {
		ev := evalRegressor(models[name], task, test)
		rows = append(rows, QErrorRow{
			Model:       name,
			Percentiles: percentiles,
			Values:      metrics.QErrorPercentiles(ev.RawTrue, ev.RawPred, percentiles),
		})
	}
	return rows, nil
}

// RenderQErrorTable formats a qerror percentile table.
func RenderQErrorTable(title string, rows []QErrorRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-9s", "Model")
	if len(rows) > 0 {
		for _, p := range rows[0].Percentiles {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("%.0f%%", p))
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s", r.Model)
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %9.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table4Row is one model's row in Table 4 (session classification).
type Table4Row struct {
	Model    string
	V, P     int
	Loss     float64
	F        []float64 // per session class, label order
	Accuracy float64
}

// Table4 reproduces session classification on SDSS.
func Table4(env *Env) ([]Table4Row, error) {
	test := env.SDSSSplit.Test
	names := append([]string{"mfreq"}, tableModels...)
	models, err := env.TrainAll(names, core.SessionClassification, HomoInstance)
	if err != nil {
		return nil, err
	}
	rows := make([]Table4Row, 0, len(names))
	for _, name := range names {
		ev := evalClassifier(models[name], core.SessionClassification, test)
		f := make([]float64, workload.NumSessionClasses)
		for c := range f {
			f[c] = ev.PerClass[c].F1
		}
		rows = append(rows, Table4Row{
			Model: name, V: models[name].V, P: models[name].P,
			Loss: ev.Loss, F: f, Accuracy: ev.Accuracy,
		})
	}
	return rows, nil
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: session classification (Homogeneous Instance, SDSS)\n")
	fmt.Fprintf(&b, "%-9s %8s %9s %7s", "Model", "v", "p", "Loss")
	for _, name := range workload.SessionClassNames {
		fmt.Fprintf(&b, " %10s", "F_"+name)
	}
	fmt.Fprintf(&b, " %9s\n", "Accuracy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %8d %9d %7.4f", r.Model, r.V, r.P, r.Loss)
		for _, f := range r.F {
			fmt.Fprintf(&b, " %10.4f", f)
		}
		fmt.Fprintf(&b, " %9.4f\n", r.Accuracy)
	}
	return b.String()
}

// Table5Row is one model's row in Table 5 (CPU time on SQLShare under
// the two schema settings).
type Table5Row struct {
	Model      string
	V          int
	PHomo      int
	LossHomo   float64
	PHetero    int
	LossHetero float64
}

// Table5 reproduces CPU-time prediction on SQLShare for Homogeneous
// Schema and Heterogeneous Schema, including the opt baseline.
func Table5(env *Env) ([]Table5Row, error) {
	names := append([]string{"median"}, tableModels...)
	rows := make([]Table5Row, 0, len(names)+1)

	evalSetting := func(name string, setting Setting) (*core.Model, core.EvalRegression, error) {
		m, err := env.Model(name, core.CPUTimePrediction, setting)
		if err != nil {
			return nil, core.EvalRegression{}, err
		}
		return m, evalRegressor(m, core.CPUTimePrediction, env.SplitFor(setting).Test), nil
	}

	for _, name := range names {
		mHomo, evHomo, err := evalSetting(name, HomoSchema)
		if err != nil {
			return nil, err
		}
		mHet, evHet, err := evalSetting(name, HeteroSchema)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Model: name, V: mHomo.V,
			PHomo: mHomo.P, LossHomo: evHomo.Loss,
			PHetero: mHet.P, LossHetero: evHet.Loss,
		})
		if name == "median" {
			optRow, err := table5Opt(env)
			if err != nil {
				return nil, err
			}
			rows = append(rows, optRow)
		}
	}
	return rows, nil
}

func table5Opt(env *Env) (Table5Row, error) {
	row := Table5Row{Model: "opt"}
	for _, setting := range []Setting{HomoSchema, HeteroSchema} {
		split := env.SplitFor(setting)
		m, err := core.FitOpt(core.CPUTimePrediction, split.Train, env.OptEstimates(split.Train))
		if err != nil {
			return row, err
		}
		ev := core.EvaluateOpt(m, core.CPUTimePrediction, split.Test, env.OptEstimates(split.Test))
		if setting == HomoSchema {
			row.LossHomo = ev.Loss
		} else {
			row.LossHetero = ev.Loss
		}
	}
	return row, nil
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: CPU time prediction (SQLShare)\n")
	fmt.Fprintf(&b, "%-9s %8s | %9s %9s | %9s %9s\n",
		"Model", "v", "p(homo)", "Loss", "p(het)", "Loss")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %8d | %9d %9.4f | %9d %9.4f\n",
			r.Model, r.V, r.PHomo, r.LossHomo, r.PHetero, r.LossHetero)
	}
	return b.String()
}

// Table6 reproduces CPU-time qerror percentiles on SQLShare,
// Homogeneous Schema (Table 6).
func Table6(env *Env) ([]QErrorRow, error) {
	return qerrorTable(env, core.CPUTimePrediction, HomoSchema,
		[]float64{40, 50, 60, 70, 75, 80})
}

// Table7 reproduces CPU-time qerror percentiles on SQLShare,
// Heterogeneous Schema (Table 7).
func Table7(env *Env) ([]QErrorRow, error) {
	return qerrorTable(env, core.CPUTimePrediction, HeteroSchema,
		[]float64{10, 20, 30, 40, 50, 60})
}
