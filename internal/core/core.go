// Package core implements the paper's primary contribution: predicting
// SQL query properties prior to execution from the raw statement text,
// using models trained on a large query workload (Definitions 3-5).
//
// It provides a uniform interface over the nine models compared in
// Section 6: the trivial baselines (mfreq, median), the optimizer-
// estimate regression (opt), the traditional TF-IDF models (ctfidf,
// wtfidf), the three-layer LSTMs (clstm, wlstm), and the shallow CNNs
// (ccnn, wcnn) — each at character or word granularity.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/simdb"
	"repro/internal/sqllex"
	"repro/internal/textfeat"
	"repro/internal/workload"
)

// Task identifies one of the four query facilitation problems
// (Definition 4).
type Task int

// The four tasks of Definition 4, plus elapsed-time prediction
// (Section 8 lists it as a direct extension: "Similar methods can be
// used [to] predict the elapsed time of queries").
const (
	ErrorClassification Task = iota
	CPUTimePrediction
	AnswerSizePrediction
	SessionClassification
	ElapsedTimePrediction
)

// taskRow is one task's entry in the task catalogue: its name, the
// word ParseTask takes, its class count (0 for a regression task), and
// the workload.Item field its label lives in, read by get (a class or a
// value) and written by set.
type taskRow struct {
	name, word string
	classes    int
	get        func(workload.Item) (class int, value float64)
	set        func(it *workload.Item, class int, value float64)
}

// tasks is the task catalogue, indexed by Task.
var tasks = [...]taskRow{
	ErrorClassification: {"error-classification", "error", simdb.NumErrorClasses,
		func(it workload.Item) (int, float64) { return int(it.ErrorClass), 0 },
		func(it *workload.Item, c int, _ float64) { it.ErrorClass = simdb.ErrorClass(c) }},
	CPUTimePrediction: {"cpu-time", "cpu", 0,
		func(it workload.Item) (int, float64) { return 0, it.CPUTime },
		func(it *workload.Item, _ int, v float64) { it.CPUTime = v }},
	AnswerSizePrediction: {"answer-size", "answer", 0,
		func(it workload.Item) (int, float64) { return 0, it.AnswerSize },
		func(it *workload.Item, _ int, v float64) { it.AnswerSize = v }},
	SessionClassification: {"session-classification", "session", workload.NumSessionClasses,
		func(it workload.Item) (int, float64) { return int(it.Class), 0 },
		func(it *workload.Item, c int, _ float64) { it.Class = workload.SessionClass(c) }},
	ElapsedTimePrediction: {"elapsed-time", "elapsed", 0,
		func(it workload.Item) (int, float64) { return 0, it.Elapsed },
		func(it *workload.Item, _ int, v float64) { it.Elapsed = v }},
}

// row returns t's catalogue entry; ok is false for a Task outside the
// catalogue.
func (t Task) row() (r taskRow, ok bool) {
	if t < 0 || int(t) >= len(tasks) {
		return taskRow{}, false
	}
	return tasks[t], true
}

// ParseTask returns the task a -task word names.
func ParseTask(word string) (Task, error) {
	for t, r := range tasks {
		if r.word == word {
			return Task(t), nil
		}
	}
	return 0, fmt.Errorf("unknown task %q (want error, session, cpu, answer, elapsed)", word)
}

// String names the task.
func (t Task) String() string {
	if r, ok := t.row(); ok {
		return r.name
	}
	return "?"
}

// IsClassification reports whether the task has class labels.
func (t Task) IsClassification() bool { return t.NumClasses() > 0 }

// NumClasses returns the label cardinality for classification tasks,
// 0 for regression tasks.
func (t Task) NumClasses() int {
	r, _ := t.row()
	return r.classes
}

// Labels extracts the task's labels from workload items: class indices
// for classification, raw values for regression.
func (t Task) Labels(items []workload.Item) ([]int, []float64) {
	r, ok := t.row()
	if !ok {
		return nil, nil
	}
	if r.classes == 0 {
		values := make([]float64, len(items))
		for i, it := range items {
			_, values[i] = r.get(it)
		}
		return nil, values
	}
	classes := make([]int, len(items))
	for i, it := range items {
		classes[i], _ = r.get(it)
	}
	return classes, nil
}

// Item returns an item for stmt labelled for the task — with class for
// a classification task, value for a regression task — and every other
// label zero.
func (t Task) Item(stmt string, class int, value float64) workload.Item {
	it := workload.Item{Statement: stmt}
	if r, ok := t.row(); ok {
		r.set(&it, class, value)
	}
	return it
}

// ModelNames lists every model in the paper's comparison, in table
// order.
var ModelNames = []string{"mfreq", "median", "opt", "ctfidf", "wtfidf", "clstm", "wlstm", "ccnn", "wcnn"}

// Hyper-parameters no configuration varies. The batch size and the
// gradient-norm clip are the paper's (Section 6.1). Its learning rate,
// 1e-3, drives tens of thousands of AdaMax steps per epoch over ~500k
// queries; at our ~10k-query scale the recipe needs proportionally
// larger steps: learningRate for the CNNs and the multi-task model, and
// lstmLearningRate for the LSTMs, which need a smaller step than the
// CNNs tolerate (and need).
const (
	learningRate     = 2e-2
	lstmLearningRate = 3e-3
	batchSize        = 16
	clip             = 0.25
	wordVocabMax     = 20000 // the word models' vocabulary cap
	// The TF-IDF models' n-gram orders run from 1 to nGramMax; their
	// linear layer trains with AdaGrad at tfidfRate.
	nGramMax  = 4
	tfidfRate = 0.5
)

// Config holds tokenization, architecture, and training
// hyper-parameters. The defaults follow Section 6.1 (dropout 0.5,
// AdaMax) with scaled-down dimensions for laptop-scale training.
type Config struct {
	// Tokenization.
	CharMaxLen int
	WordMaxLen int
	// Neural architectures.
	Embed      int
	Hidden     int
	LSTMLayers int
	Kernels    int
	Widths     []int
	Dropout    float64
	// Training.
	Epochs int
	// Workers is the number of workers the training engine fans each
	// mini-batch across (see trainLoop: one loop; one worker draws dropout
	// from the training RNG). 1 is the default; <= 0 selects
	// min(GOMAXPROCS, batch size). Values > 1 keep training deterministic
	// for a fixed worker count but draw dropout per example and reorder
	// floating-point gradient accumulation relative to one worker.
	Workers int
	// Traditional models.
	MaxFeatures int
	TfidfEpochs int
	Seed        int64
}

// DefaultConfig returns the scaled-down defaults used by the
// experiment harness. The learning rates, batch size, clip and n-gram
// order are constants: AdaMax at 2e-2 for the CNNs and 3e-3 for the
// LSTMs, AdaGrad at 0.5 for the TF-IDF models' linear layer, and the
// paper's batch size 16 and clipping 0.25.
func DefaultConfig() Config {
	return Config{
		CharMaxLen: 160, WordMaxLen: 40,
		Embed: 16, Hidden: 32, LSTMLayers: 3,
		Kernels: 32, Widths: []int{3, 4, 5}, Dropout: 0.5,
		Epochs: 4, Workers: 1,
		MaxFeatures: 50000, TfidfEpochs: 4,
		Seed: 42,
	}
}

// TinyConfig returns a minimal configuration for unit tests and quick
// benchmarks.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.CharMaxLen, cfg.WordMaxLen = 60, 24
	cfg.Embed, cfg.Hidden, cfg.Kernels = 8, 12, 8
	cfg.Epochs, cfg.TfidfEpochs = 1, 2
	cfg.MaxFeatures = 5000
	return cfg
}

// Model is a trained query-property predictor.
//
// Prediction methods on neural models reuse internal scratch buffers
// (the allocation-free hot-path contract of internal/nn), so a Model
// instance is not safe for concurrent use; obtain shared-weight
// replicas with Replicate (or wrap the model in a serve.Predictor),
// or serialize calls.
type Model struct {
	Name string
	Task Task
	// V and P are the vocabulary size and parameter count reported in
	// the paper's tables (0 for the trivial baselines).
	V, P int
	// Version is snapshot metadata assigned by a model registry
	// (service.Service): 0 for a freshly trained model, otherwise the
	// registry version of the immutable Snapshot this model is.
	Version int

	probs func(stmt string) []float64 // classification
	value func(stmt string) float64   // regression, log-space
	// forwardBatch runs the neural network over a whole micro-batch as
	// n-row matrices, returning raw logits (n×outDim row-major in
	// model-owned scratch). Nil for non-neural models, which fall back
	// to per-statement loops in the Batch methods.
	forwardBatch func(stmts []string) (out []float64, outDim int)
	// LogMin inverts the log transform for regression models.
	LogMin float64

	// Neural backend handle, kept so trained models can be fine-tuned
	// on a new workload (the transfer-learning direction of Section 8).
	// Nil for baselines and the TF-IDF models.
	neural  nnBackend
	maxLen  int
	rngSeed int64
	// frozen marks a Replicate copy, whose backend is inference-only;
	// FineTune refuses it.
	frozen bool

	// predictHook, when set, runs before every neural prediction (see
	// SetPredictHook). Checked per call, so it survives rebinding and
	// is inherited by Snapshot and Replicate copies.
	predictHook func(stmt string)
}

// SetPredictHook installs a function invoked with the statement before
// every neural prediction on this model instance. It is a fault-
// injection seam for resilience tests: a hook that panics simulates a
// poisoned model or input, exercising the serving pool's recovery
// boundary. Snapshot and Replicate copies inherit the hook. A nil hook
// (the default) costs one predictable branch on the warm path and
// allocates nothing. No-op for baseline and TF-IDF models, which have
// no neural backend. Not safe to call concurrently with predictions.
func (m *Model) SetPredictHook(hook func(stmt string)) {
	m.predictHook = hook
}

// nnBackend is the retained state of a neural model.
type nnBackend struct {
	model nn.Model
	vocab *sqllex.Vocabulary
}

// Probs returns the class distribution for a statement in a freshly
// allocated slice that is safe to retain. Not safe for concurrent use
// (see Model); hot paths that own an output buffer should use
// ProbsInto.
func (m *Model) Probs(stmt string) []float64 {
	if m.probs == nil {
		return nil
	}
	p := m.probs(stmt)
	if p == nil {
		return nil
	}
	return append([]float64(nil), p...)
}

// ProbsInto writes the class distribution for a statement into dst
// (reusing its backing array, growing it only when capacity is
// insufficient) and returns the written slice. When dst has capacity
// for the class count, the warm neural path performs zero allocations.
// Not safe for concurrent use (see Model).
func (m *Model) ProbsInto(stmt string, dst []float64) []float64 {
	if m.probs == nil {
		return nil
	}
	return append(dst[:0], m.probs(stmt)...)
}

// PredictClass returns the argmax class for a statement. It reads the
// model's internal distribution scratch directly, so the warm neural
// path performs zero allocations. Not safe for concurrent use (see
// Model).
func (m *Model) PredictClass(stmt string) int {
	if m.probs == nil {
		return 0
	}
	return argmax(m.probs(stmt))
}

// PredictLog returns the log-space regression prediction. Not safe for
// concurrent use (see Model).
func (m *Model) PredictLog(stmt string) float64 {
	if m.value == nil {
		return 0
	}
	return m.value(stmt)
}

// PredictRaw returns the regression prediction in the label's original
// units (rows or seconds), inverting the paper's log transform.
func (m *Model) PredictRaw(stmt string) float64 {
	return metrics.InverseLogTransform(m.PredictLog(stmt), m.LogMin)
}

// Tokenize applies the model's granularity to a statement: names
// beginning with 'c' are character-level, 'w' word-level.
func Tokenize(modelName, stmt string) []string {
	if len(modelName) > 0 && modelName[0] == 'w' {
		return sqllex.Words(stmt)
	}
	return sqllex.Chars(stmt)
}

// tokenizeAll tokenizes every item at the model's granularity, for
// vocabulary building and featurization over a whole training set. The
// tokens are substrings of the statements, so a pass allocates one
// slice per statement (and one string per digit-normalized literal);
// the vocabulary and the featurizer copy the tokens they keep.
func tokenizeAll(modelName string, items []workload.Item) [][]string {
	seqs := make([][]string, len(items))
	for i, item := range items {
		seqs[i] = Tokenize(modelName, item.Statement)
	}
	return seqs
}

// Train fits the named model for the task on the training items. The
// opt baseline needs optimizer estimates and must be trained with
// TrainOpt instead.
func Train(name string, task Task, train []workload.Item, cfg Config) (*Model, error) {
	switch name {
	case "mfreq":
		return trainMFreq(task, train)
	case "median":
		return trainMedian(task, train)
	case "ctfidf", "wtfidf":
		return trainTFIDF(name, task, train, cfg)
	case "ccnn", "wcnn", "clstm", "wlstm":
		return trainNeural(name, task, train, cfg)
	case "opt":
		return nil, fmt.Errorf("core: train %q with FitOpt (requires optimizer estimates)", name)
	default:
		return nil, fmt.Errorf("core: unknown model %q", name)
	}
}

// trainMFreq builds the majority-class baseline.
func trainMFreq(task Task, train []workload.Item) (*Model, error) {
	if !task.IsClassification() {
		return nil, fmt.Errorf("core: mfreq requires a classification task")
	}
	labels, _ := task.Labels(train)
	counts := make([]int, task.NumClasses())
	for _, y := range labels {
		counts[y]++
	}
	best := 0
	for c := range counts {
		if counts[c] > counts[best] {
			best = c
		}
	}
	dist := make([]float64, task.NumClasses())
	dist[best] = 1
	return &Model{
		Name: "mfreq", Task: task,
		probs: func(string) []float64 { return dist },
	}, nil
}

// trainMedian builds the median baseline for regression (predicting
// the median of the log-transformed training distribution).
func trainMedian(task Task, train []workload.Item) (*Model, error) {
	if task.IsClassification() {
		return nil, fmt.Errorf("core: median requires a regression task")
	}
	_, raw := task.Labels(train)
	logs, min := metrics.LogTransform(raw)
	// metrics.Median interpolates the two middle values for even-length
	// samples, keeping the baseline consistent with
	// metrics.Percentile(logs, 50) everywhere else in the evaluation.
	med := 0.0
	if len(logs) > 0 {
		med = metrics.Median(logs)
	}
	return &Model{
		Name: "median", Task: task, LogMin: min,
		value: func(string) float64 { return med },
	}, nil
}

// OptModel is the opt baseline of Section 6.1 (following Akdere et al.
// and Li et al.): a linear regression from the query optimizer's cost
// estimate to the log-transformed label. Unlike the text models it
// cannot predict from the statement alone — it needs the per-query
// optimizer estimate, so it has its own fit/predict pair.
type OptModel struct {
	Line   textfeat.LinearRegression1D
	LogMin float64
}

// FitOpt fits the opt baseline from per-item optimizer cost estimates.
func FitOpt(task Task, train []workload.Item, estimates []float64) (OptModel, error) {
	if task.IsClassification() {
		return OptModel{}, fmt.Errorf("core: opt requires a regression task")
	}
	_, raw := task.Labels(train)
	logs, min := metrics.LogTransform(raw)
	xs := make([]float64, len(estimates))
	for i, e := range estimates {
		xs[i] = logScale(e)
	}
	return OptModel{Line: textfeat.FitLinear1D(xs, logs), LogMin: min}, nil
}

// PredictLog maps an optimizer estimate to a log-space prediction.
func (m OptModel) PredictLog(estimate float64) float64 {
	return m.Line.Predict(logScale(estimate))
}

func logScale(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

// trainTFIDF fits the traditional two-stage models: one sparse linear
// layer over TF-IDF features, trained on the task's loss as the neural
// models are — cross-entropy over the class scores, or Huber loss on one
// output warm-started at the mean log label (Section 5.1: "For
// regression problems, we use Huber loss").
func trainTFIDF(name string, task Task, train []workload.Item, cfg Config) (*Model, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	seqs := tokenizeAll(name, train)
	fz := textfeat.FitFeaturizer(seqs, nGramMax, cfg.MaxFeatures)
	xs := fz.TransformAll(seqs)
	m := &Model{Name: name, Task: task, V: fz.NumFeatures()}
	if task.IsClassification() {
		labels, _ := task.Labels(train)
		lin := textfeat.NewLinear(task.NumClasses(), fz.NumFeatures())
		lin.Fit(xs, cfg.TfidfEpochs, tfidfRate, rng, func(i int, scores, dscores []float64) float64 {
			return nn.SoftmaxCEInto(scores, labels[i], dscores)
		})
		m.P = lin.ParamCount()
		m.probs = func(stmt string) []float64 {
			scores := lin.Scores(fz.Transform(Tokenize(name, stmt)), make([]float64, lin.Outputs))
			return nn.SoftmaxInto(scores, scores)
		}
		return m, nil
	}
	_, raw := task.Labels(train)
	logs, min := metrics.LogTransform(raw)
	lin := textfeat.NewLinear(1, fz.NumFeatures())
	lin.B[0] = meanOf(logs)
	lin.Fit(xs, cfg.TfidfEpochs, tfidfRate, rng, func(i int, scores, dscores []float64) float64 {
		loss, d := nn.HuberLoss(scores[0], logs[i], 1)
		dscores[0] = d
		return loss
	})
	m.P = lin.ParamCount()
	m.LogMin = min
	m.value = func(stmt string) float64 {
		var score [1]float64
		return lin.Scores(fz.Transform(Tokenize(name, stmt)), score[:])[0]
	}
	return m, nil
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
