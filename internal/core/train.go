package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/lazyrand"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sqllex"
	"repro/internal/workload"
)

// trainNeural builds one of the four neural models (ccnn, wcnn, clstm,
// wlstm) — vocabulary, initialized network, and for regression the log
// labels and the output bias warm-started at their mean — and fits it
// with the paper's training recipe (see fit).
func trainNeural(name string, task Task, train []workload.Item, cfg Config) (*Model, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxLen, vocabMax := cfg.CharMaxLen, 0 // characters: unbounded (small anyway)
	if name[0] == 'w' {
		maxLen, vocabMax = cfg.WordMaxLen, wordVocabMax
	}
	// Build the vocabulary from training tokens (substrings of the
	// statements; the vocabulary copies the ones it keeps).
	vocab := sqllex.BuildVocabulary(tokenizeAll(name, train), vocabMax)

	outputs := max(task.NumClasses(), 1) // a regression network has one output
	var model nn.Model
	switch name {
	case "ccnn", "wcnn":
		model = nn.NewCNN(nn.CNNConfig{
			Vocab: vocab.Size(), Embed: cfg.Embed, Widths: cfg.Widths,
			Kernels: cfg.Kernels, Dropout: cfg.Dropout, Outputs: outputs,
		}, rng)
	default:
		model = nn.NewLSTM(nn.LSTMConfig{
			Vocab: vocab.Size(), Embed: cfg.Embed, Hidden: cfg.Hidden,
			Layers: cfg.LSTMLayers, Outputs: outputs,
		}, rng)
	}
	m := &Model{
		Name: name, Task: task, V: vocab.Size(), P: nn.ParamCount(model.Params()),
		neural: nnBackend{model: model, vocab: vocab},
		maxLen: maxLen, rngSeed: cfg.Seed,
	}
	var logs []float64
	if !task.IsClassification() {
		_, raw := task.Labels(train)
		logs, m.LogMin = metrics.LogTransform(raw)
		warmStartBias(model, meanOf(logs))
	}
	// The training RNG runs on from weight initialization.
	if err := m.fit(train, logs, cfg, rng, cfg.Seed); err != nil {
		return nil, err
	}
	m.bindNeuralPredict()
	return m, nil
}

// fit trains m's network from its current weights with the paper's
// recipe — AdaMax at learningRate (lstmLearningRate for the LSTMs),
// mini-batches, clipping, and cross-entropy on class labels or Huber
// loss on logs, the log-transformed regression labels (nil for a
// classifier) — over statements encoded as serving encodes them. rng
// drives the epoch shuffles and one worker's dropout, seed more
// workers' dropout (see trainLoop). A class outside the task's range
// fails the call before any step.
func (m *Model) fit(train []workload.Item, logs []float64, cfg Config, rng *rand.Rand, seed int64) error {
	var labels []int
	if n := m.Task.NumClasses(); m.Task.IsClassification() {
		labels, _ = m.Task.Labels(train)
		for i, c := range labels {
			if c < 0 || c >= n {
				return fmt.Errorf("core: %s: training item %d has class %d, outside [0, %d)", m.Name, i, c, n)
			}
		}
	}
	encoded := encodeAll(m.newEncoder(), train)
	lr := learningRate
	if m.Name == "clstm" || m.Name == "wlstm" {
		lr = lstmLearningRate
	}
	model := m.neural.model
	trainLoop(cfg, seed, len(encoded), rng, nn.NewOptimizer(lr, clip), model.Params(), func() trainWorker {
		rep := model.CloneShared()
		// The worker's loss gradients, reused every step.
		var dlogits []float64
		var dout [1]float64
		return trainWorker{grads: rep.Params(), step: func(wrng *rand.Rand, i int) {
			out, cache := rep.Forward(encoded[i], true, wrng)
			if labels == nil {
				_, dout[0] = nn.HuberLoss(out[0], logs[i], 1)
				rep.Backward(encoded[i], cache, dout[:])
				return
			}
			nn.SoftmaxCEInto(out, labels[i], growFloats(&dlogits, len(out)))
			rep.Backward(encoded[i], cache, dlogits)
		}}
	})
	return nil
}

// encodeAll encodes every item's statement with enc into ids of its
// own, for a training loop to keep.
func encodeAll(enc *sqllex.Encoder, items []workload.Item) [][]int {
	encoded := make([][]int, len(items))
	for i, item := range items {
		encoded[i] = slices.Clone(enc.Encode(item.Statement))
	}
	return encoded
}

// trainWorker is one training worker: a step function bound to a model
// replica, and the replica's parameters, the worker's gradient shard.
type trainWorker struct {
	step  func(rng *rand.Rand, i int)
	grads []*nn.Param
}

// trainLoop is the data-parallel mini-batch training engine: cfg.Epochs
// passes over n examples in batches of batchSize.
// Each batch is fanned out across cfg.Workers workers (<= 0 selects
// GOMAXPROCS; never more than the batch size), each built once up front
// by newWorker on a shared-weight replica of the model; a worker runs
// forward+backward into its replica's private gradient shard, and one
// nn.Optimizer.Step reduces the shards in worker order and updates
// params, the master's, which no worker writes. rng drives the epoch
// shuffles. Worker 0's share of each batch runs on the calling
// goroutine and every other worker's on a goroutine of its own; state
// is bound to the worker index, not to a goroutine.
//
// There is one loop; the worker count changes only where dropout draws
// from:
//   - One worker draws dropout from rng, between the epoch shuffles and
//     in example order — the stream training has used since before the
//     engine existed, bit for bit. No goroutine starts.
//   - More than one worker derives each example's dropout RNG from
//     (seed, epoch, batch slot): math/rand's stream for that seed,
//     seeded in O(1) by lazyrand. Dropout masks do not depend on the
//     worker count or goroutine scheduling. For a fixed worker count
//     results are fully deterministic; across different worker counts
//     (including vs. one worker with dropout disabled) final weights
//     agree up to floating-point summation order (~1e-12 per step).
func trainLoop(cfg Config, seed int64, n int, rng *rand.Rand, opt *nn.Optimizer, params []*nn.Param,
	newWorker func() trainWorker) {
	batch := batchSize
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, batch)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	state := make([]trainWorker, workers)
	grads := make([][]*nn.Param, workers)
	rngs := make([]*rand.Rand, workers)
	for w := range state {
		state[w] = newWorker()
		grads[w] = state[w].grads
		rngs[w] = rand.New(lazyrand.New(0)) // reseeded per example: O(1) seeds
	}
	// One job closure reused for every batch; the loop variables it
	// captures are updated only while no worker runs.
	var e, start, end int
	var wg sync.WaitGroup
	batchJob := func(w int) {
		for k := start + w; k < end; k += workers {
			wrng := rng // one worker: dropout continues the training RNG's stream
			if workers > 1 {
				wrng = rngs[w]
				wrng.Seed(exampleSeed(seed, e, k))
			}
			state[w].step(wrng, order[k])
		}
	}
	for e = 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start = 0; start < n; start += batch {
			end = min(start+batch, n)
			wg.Add(workers - 1)
			for w := 1; w < workers; w++ {
				go func() {
					defer wg.Done()
					batchJob(w)
				}()
			}
			batchJob(0)
			wg.Wait()
			opt.Step(params, grads, end-start)
		}
	}
}

// exampleSeed mixes (seed, epoch, slot) into the dropout RNG seed for
// one training example (splitmix64 finalizer), making dropout masks a
// pure function of the training position.
func exampleSeed(seed int64, epoch, slot int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(epoch+1) + 0xbf58476d1ce4e5b9*uint64(slot+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// warmStartBias initializes the regression output bias at the label
// mean so early training does not spend epochs closing a large offset.
func warmStartBias(model nn.Model, mean float64) {
	switch m := model.(type) {
	case *nn.CNNModel:
		m.FC.B.W[0] = mean
	case *nn.LSTMModel:
		m.FC.B.W[0] = mean
	}
}

// EvalClassification holds the classification measures of Tables 2 and
// 4: accuracy, mean cross-entropy loss, and per-class F-measures.
type EvalClassification struct {
	Accuracy float64
	Loss     float64
	PerClass []metrics.ClassStats
	Pred     []int
}

// EvaluateClassifier computes classification metrics on test items by
// querying the model sequentially. Concurrent evaluation computes the
// distributions through a serve.Predictor and assembles the same
// result with ClassificationEval.
func EvaluateClassifier(m *Model, task Task, test []workload.Item) EvalClassification {
	probs := make([][]float64, len(test))
	for i, item := range test {
		probs[i] = m.Probs(item.Statement)
	}
	return ClassificationEval(probs, task, test)
}

// ClassificationEval assembles classification metrics from per-item
// class distributions, however they were computed. Predicted classes
// use the same argmax as Model.PredictClass.
func ClassificationEval(probs [][]float64, task Task, test []workload.Item) EvalClassification {
	truth, _ := task.Labels(test)
	pred := make([]int, len(probs))
	for i, p := range probs {
		pred[i] = argmax(p)
	}
	return EvalClassification{
		Accuracy: metrics.Accuracy(pred, truth),
		Loss:     metrics.CrossEntropyMean(probs, truth),
		PerClass: metrics.PerClassF(pred, truth, task.NumClasses()),
		Pred:     pred,
	}
}

// EvalRegression holds the regression measures of Tables 2, 3, 5-7 and
// Figures 12-14: mean Huber loss and MSE in log space, plus raw-space
// predictions for qerror analysis.
type EvalRegression struct {
	Loss    float64 // mean Huber loss on log labels
	MSE     float64
	LogPred []float64
	LogTrue []float64
	RawPred []float64
	RawTrue []float64
}

// EvaluateRegressor computes regression metrics on test items by
// querying the model sequentially. Labels are log-transformed with the
// model's training minimum so train and test share the transform.
// Concurrent evaluation computes the predictions through a
// serve.Predictor and assembles the same result with RegressionEval.
func EvaluateRegressor(m *Model, task Task, test []workload.Item) EvalRegression {
	logPred := make([]float64, len(test))
	for i, item := range test {
		logPred[i] = m.PredictLog(item.Statement)
	}
	return RegressionEval(logPred, m.LogMin, task, test)
}

// RegressionEval assembles regression metrics from log-space
// predictions, however they were computed. logMin is the predicting
// model's training log-transform minimum.
func RegressionEval(logPred []float64, logMin float64, task Task, test []workload.Item) EvalRegression {
	_, raw := task.Labels(test)
	ev := EvalRegression{
		LogPred: logPred,
		LogTrue: make([]float64, len(test)),
		RawPred: make([]float64, len(test)),
		RawTrue: raw,
	}
	for i := range test {
		ev.LogTrue[i] = logWithMin(raw[i], logMin)
		ev.RawPred[i] = metrics.InverseLogTransform(logPred[i], logMin)
	}
	ev.Loss = metrics.HuberLossMean(ev.LogPred, ev.LogTrue, 1)
	ev.MSE = metrics.MSE(ev.LogPred, ev.LogTrue)
	return ev
}

// EvaluateOpt evaluates the opt baseline given per-item estimates.
func EvaluateOpt(m OptModel, task Task, test []workload.Item, estimates []float64) EvalRegression {
	logPred := make([]float64, len(test))
	for i := range test {
		logPred[i] = m.PredictLog(estimates[i])
	}
	return RegressionEval(logPred, m.LogMin, task, test)
}

// logWithMin applies y' = ln(y + 1 - min), clamping below min (test
// labels can undershoot the training minimum).
func logWithMin(v, min float64) float64 {
	x := v + 1 - min
	if x < 1e-9 {
		x = 1e-9
	}
	return logOf(x)
}

func logOf(x float64) float64 { return math.Log(x) }
