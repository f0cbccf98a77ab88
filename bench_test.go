package repro

// One testing.B benchmark per table and figure of the paper's
// evaluation, plus ablation benches for its design choices. Each
// regenerates its table/figure on the shared small-scale environment
// and reports a headline metric via b.ReportMetric, so `go test
// -bench=.` reproduces the evaluation end to end; cmd/experiments
// prints the default-scale numbers. Serving and training speed are not
// measured here: `go run ./bench` is the one source of those numbers.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/simdb"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func getBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.SmallScale())
	})
	return benchEnv
}

func BenchmarkTable1Splits(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table1(env)
		if len(rows) != 3 {
			b.Fatal("table 1 rows")
		}
	}
}

func BenchmarkTable2ErrorCPUAnswer(b *testing.B) {
	env := getBenchEnv(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(env)
		if err != nil {
			b.Fatal(err)
		}
		acc = rows[len(rows)-1].Accuracy
	}
	b.ReportMetric(acc, "accuracy")
}

func BenchmarkTable3QError(b *testing.B) {
	env := getBenchEnv(b)
	var q50 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(env)
		if err != nil {
			b.Fatal(err)
		}
		q50 = rows[len(rows)-1].Values[0]
	}
	b.ReportMetric(q50, "qerr50")
}

func BenchmarkTable4Session(b *testing.B) {
	env := getBenchEnv(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(env)
		if err != nil {
			b.Fatal(err)
		}
		acc = rows[len(rows)-1].Accuracy
	}
	b.ReportMetric(acc, "accuracy")
}

func BenchmarkTable5SQLShareCPU(b *testing.B) {
	env := getBenchEnv(b)
	var loss float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(env)
		if err != nil {
			b.Fatal(err)
		}
		loss = rows[len(rows)-1].LossHetero
	}
	b.ReportMetric(loss, "loss")
}

func BenchmarkTable6QErrorHomoSchema(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7QErrorHeteroSchema(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3Structural(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		stats, _ := experiments.FigureStructural(env, true)
		if len(stats) != 10 {
			b.Fatal("figure 3 properties")
		}
	}
}

func BenchmarkFigure4Structural(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		stats, _ := experiments.FigureStructural(env, false)
		if len(stats) != 10 {
			b.Fatal("figure 4 properties")
		}
	}
}

func BenchmarkFigure6Labels(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Figure6(env)
		if res.ErrorCounts["success"] == 0 {
			b.Fatal("figure 6 counts")
		}
	}
}

func BenchmarkFigure7Correlation(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		m, _ := experiments.Figure7(env, true)
		if len(m) != 10 {
			b.Fatal("figure 7 dims")
		}
	}
}

func BenchmarkFigure8BySession(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Figure8(env)
		if len(res.AnswerSize) == 0 {
			b.Fatal("figure 8 rows")
		}
	}
}

func BenchmarkFigure12MSEBySession(b *testing.B) {
	env := getBenchEnv(b)
	var mse float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(env, core.CPUTimePrediction)
		if err != nil {
			b.Fatal(err)
		}
		mse = rows[len(rows)-1].Overall
	}
	b.ReportMetric(mse, "mse")
}

func BenchmarkFigure13ErrVsStructure(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14AcrossSettings(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		for _, s := range []experiments.Setting{experiments.HomoInstance, experiments.HomoSchema, experiments.HeteroSchema} {
			if _, err := experiments.Figure14(env, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure20Repetition(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		h, _ := experiments.Figure20(env)
		if h["1"] == 0 {
			b.Fatal("figure 20 histogram")
		}
	}
}

// Ablation benches.

func ablationSplit(b *testing.B) workload.Split {
	b.Helper()
	env := getBenchEnv(b)
	return env.SDSSSplit
}

// BenchmarkAblationCharVsWord compares char vs word tokenization for
// CPU-time prediction under the heterogeneous setting — the paper's
// core generalization claim (Section 6.2.4).
func BenchmarkAblationCharVsWord(b *testing.B) {
	env := getBenchEnv(b)
	split := env.SplitFor(experiments.HeteroSchema)
	cfg := env.Scale.Cfg
	var charLoss, wordLoss float64
	for i := 0; i < b.N; i++ {
		cm, err := core.Train("ccnn", core.CPUTimePrediction, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		wm, err := core.Train("wcnn", core.CPUTimePrediction, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		charLoss = core.EvaluateRegressor(cm, core.CPUTimePrediction, split.Test).Loss
		wordLoss = core.EvaluateRegressor(wm, core.CPUTimePrediction, split.Test).Loss
	}
	b.ReportMetric(charLoss, "char-loss")
	b.ReportMetric(wordLoss, "word-loss")
}

// BenchmarkAblationLoss compares the paper's log+Huber recipe against
// raw-label training for answer-size prediction.
func BenchmarkAblationLoss(b *testing.B) {
	split := ablationSplit(b)
	cfg := getBenchEnv(b).Scale.Cfg
	var logLoss, rawMSE float64
	for i := 0; i < b.N; i++ {
		m, err := core.Train("ctfidf", core.AnswerSizePrediction, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ev := core.EvaluateRegressor(m, core.AnswerSizePrediction, split.Test)
		logLoss = ev.MSE
		// Raw-label alternative: qerror of predicting the raw mean.
		_, raw := core.AnswerSizePrediction.Labels(split.Train)
		mean := 0.0
		for _, v := range raw {
			mean += v
		}
		mean /= float64(len(raw))
		_, testRaw := core.AnswerSizePrediction.Labels(split.Test)
		preds := make([]float64, len(testRaw))
		for j := range preds {
			preds[j] = mean
		}
		logTrue, _ := metrics.LogTransform(testRaw)
		logPreds := make([]float64, len(preds))
		for j := range preds {
			logPreds[j] = logOfSafe(preds[j] - minOf(testRaw) + 1)
		}
		rawMSE = metrics.MSE(logPreds, logTrue)
	}
	b.ReportMetric(logLoss, "log-huber-mse")
	b.ReportMetric(rawMSE, "raw-mean-mse")
}

// BenchmarkAblationKernels compares the {3,4,5} kernel-width set with a
// single width.
func BenchmarkAblationKernels(b *testing.B) {
	split := ablationSplit(b)
	base := getBenchEnv(b).Scale.Cfg
	var multi, single float64
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.Widths = []int{3, 4, 5}
		m1, err := core.Train("ccnn", core.ErrorClassification, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Widths = []int{3}
		m2, err := core.Train("ccnn", core.ErrorClassification, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		test := split.Test
		multi = core.EvaluateClassifier(m1, core.ErrorClassification, test).Loss
		single = core.EvaluateClassifier(m2, core.ErrorClassification, test).Loss
	}
	b.ReportMetric(multi, "widths345-loss")
	b.ReportMetric(single, "width3-loss")
}

// BenchmarkAblationLSTMDepth compares the paper's 3-layer LSTM with a
// single layer.
func BenchmarkAblationLSTMDepth(b *testing.B) {
	split := ablationSplit(b)
	base := getBenchEnv(b).Scale.Cfg
	var deep, shallow float64
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.LSTMLayers = 3
		m3, err := core.Train("clstm", core.ErrorClassification, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.LSTMLayers = 1
		m1, err := core.Train("clstm", core.ErrorClassification, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		deep = core.EvaluateClassifier(m3, core.ErrorClassification, split.Test).Loss
		shallow = core.EvaluateClassifier(m1, core.ErrorClassification, split.Test).Loss
	}
	b.ReportMetric(deep, "layers3-loss")
	b.ReportMetric(shallow, "layers1-loss")
}

// BenchmarkAblationVocab sweeps the TF-IDF vocabulary cap.
func BenchmarkAblationVocab(b *testing.B) {
	split := ablationSplit(b)
	base := getBenchEnv(b).Scale.Cfg
	var small, large float64
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.MaxFeatures = 500
		m1, err := core.Train("ctfidf", core.ErrorClassification, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.MaxFeatures = 20000
		m2, err := core.Train("ctfidf", core.ErrorClassification, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		small = core.EvaluateClassifier(m1, core.ErrorClassification, split.Test).Loss
		large = core.EvaluateClassifier(m2, core.ErrorClassification, split.Test).Loss
	}
	b.ReportMetric(small, "v500-loss")
	b.ReportMetric(large, "v20k-loss")
}

// BenchmarkAblationTransfer measures the Section 8 transfer-learning
// extension: pre-train on SDSS, fine-tune on unseen SQLShare users.
func BenchmarkAblationTransfer(b *testing.B) {
	env := getBenchEnv(b)
	split := env.SplitFor(experiments.HeteroSchema)
	cfg := env.Scale.Cfg
	var res core.TransferResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.TransferExperiment("ccnn", core.CPUTimePrediction,
			env.SDSSSplit.Train, split.Train, split.Test, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SourceOnly, "source-loss")
	b.ReportMetric(res.FineTuned, "finetuned-loss")
	b.ReportMetric(res.FromScratch, "scratch-loss")
}

// BenchmarkAblationMultiTask compares the Section 8 multi-task model
// against the single-task CNN on error classification accuracy.
func BenchmarkAblationMultiTask(b *testing.B) {
	env := getBenchEnv(b)
	split := env.SDSSSplit
	cfg := env.Scale.Cfg
	var mtAcc, stAcc float64
	for i := 0; i < b.N; i++ {
		mt, err := core.TrainMultiTask(split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := env.Model("ccnn", core.ErrorClassification, experiments.HomoInstance)
		if err != nil {
			b.Fatal(err)
		}
		truth, _ := core.ErrorClassification.Labels(split.Test)
		correct := 0
		for j, item := range split.Test {
			if mt.Predict(item.Statement).ErrorClass == truth[j] {
				correct++
			}
		}
		mtAcc = float64(correct) / float64(len(split.Test))
		stAcc = core.EvaluateClassifier(st, core.ErrorClassification, split.Test).Accuracy
	}
	b.ReportMetric(mtAcc, "multitask-acc")
	b.ReportMetric(stAcc, "singletask-acc")
}

// BenchmarkAblationCompression trains on a template-compressed
// workload versus the full workload.
func BenchmarkAblationCompression(b *testing.B) {
	env := getBenchEnv(b)
	split := env.SDSSSplit
	cfg := env.Scale.Cfg
	var full, compressed float64
	for i := 0; i < b.N; i++ {
		mFull, err := core.Train("ctfidf", core.ErrorClassification, split.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		small := workload.Compress(split.Train, len(split.Train)/2)
		mComp, err := core.Train("ctfidf", core.ErrorClassification, small, cfg)
		if err != nil {
			b.Fatal(err)
		}
		full = core.EvaluateClassifier(mFull, core.ErrorClassification, split.Test).Accuracy
		compressed = core.EvaluateClassifier(mComp, core.ErrorClassification, split.Test).Accuracy
	}
	b.ReportMetric(full, "full-acc")
	b.ReportMetric(compressed, "compressed-acc")
}

// Micro-benchmarks of the substrates.

func BenchmarkSQLParse(b *testing.B) {
	q := `SELECT dbo.fGetURLExpid(objid) FROM SpecPhoto WHERE modelmag_u - modelmag_g =
	  (SELECT min(modelmag_u - modelmag_g) FROM SpecPhoto AS s INNER JOIN PhotoObj AS p
	   ON s.objid = p.objid WHERE (s.flags_g = 0 OR p.psfmagerr_g <= 0.2))`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f := sqlparse.ExtractFeatures(q); !f.Parsed {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkSimDBExecute(b *testing.B) {
	en := simdb.NewEngine(simdb.NewSDSSCatalog())
	q := "SELECT p.objid, p.ra FROM PhotoObj AS p WHERE p.ra BETWEEN 150 AND 152 AND p.type = 6"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := en.Execute(q); r.Error != simdb.Success {
			b.Fatal("execution failed")
		}
	}
}

func BenchmarkTFIDFPredict(b *testing.B) {
	env := getBenchEnv(b)
	m, err := env.Model("ctfidf", core.ErrorClassification, experiments.HomoInstance)
	if err != nil {
		b.Fatal(err)
	}
	q := "SELECT p.objid, p.ra FROM PhotoObj AS p WHERE p.ra BETWEEN 150 AND 152"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := m.Probs(q); len(p) != 3 {
			b.Fatal("probs")
		}
	}
}

func logOfSafe(x float64) float64 {
	if x < 1e-9 {
		x = 1e-9
	}
	return math.Log(x)
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}
