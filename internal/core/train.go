package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sqllex"
	"repro/internal/workload"
)

// trainNeural fits one of the four neural models (ccnn, wcnn, clstm,
// wlstm) with the paper's training recipe: AdaMax, learning rate 1e-3,
// batch size 16, gradient clipping, cross-entropy or Huber loss on
// log-transformed labels.
func trainNeural(name string, task Task, train []workload.Item, cfg Config) (*Model, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	word := name[0] == 'w'
	maxLen := cfg.CharMaxLen
	if word {
		maxLen = cfg.WordMaxLen
	}
	// Build the vocabulary from training tokens (pooled tokenizer: one
	// interned string per distinct token across the whole corpus).
	seqs := tokenizeAll(name, train)
	vocabMax := 0 // characters: unbounded (small anyway)
	if word {
		vocabMax = cfg.WordVocabMax
	}
	vocab := sqllex.BuildVocabulary(seqs, vocabMax)
	encoded := make([][]int, len(train))
	for i, seq := range seqs {
		encoded[i] = vocab.Encode(seq, maxLen)
	}

	outputs := 1
	if task.IsClassification() {
		outputs = task.NumClasses()
	}
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
	lr := cfg.LR
	if cfg.LSTMLR > 0 && (name == "clstm" || name == "wlstm") {
		lr = cfg.LSTMLR
	}
	opt := nn.NewOptimizer(nn.AdaMax, lr, cfg.Clip)
	params := model.Params()

	m := &Model{
		Name: name, Task: task, V: vocab.Size(), P: nn.ParamCount(params),
		neural: nnBackend{model: model, vocab: vocab},
		maxLen: maxLen, rngSeed: cfg.Seed,
	}

	trainer := NewTrainer(cfg)
	if task.IsClassification() {
		labels, _ := task.Labels(train)
		trainer.trainModel(model, opt, params, len(encoded), rng, func(mm nn.Model, sc *stepScratch, wrng *rand.Rand, i int) {
			out, cache := mm.Forward(encoded[i], true, wrng)
			nn.SoftmaxCEInto(out, labels[i], growFloats(&sc.dlogits, len(out)))
			mm.Backward(encoded[i], cache, sc.dlogits)
		})
		m.bindNeuralPredict()
		return m, nil
	}

	_, raw := task.Labels(train)
	logs, min := metrics.LogTransform(raw)
	m.LogMin = min
	warmStartBias(model, meanOf(logs))
	trainer.trainModel(model, opt, params, len(encoded), rng, func(mm nn.Model, sc *stepScratch, wrng *rand.Rand, i int) {
		out, cache := mm.Forward(encoded[i], true, wrng)
		_, dpred := nn.HuberLoss(out[0], logs[i], 1)
		sc.dout[0] = dpred
		mm.Backward(encoded[i], cache, sc.dout[:])
	})
	m.bindNeuralPredict()
	return m, nil
}

// stepScratch is per-worker training scratch — the logit-gradient
// buffer of SoftmaxCEInto and the single-output gradient of the
// regression head — so the per-step loss computation allocates
// nothing (a ROADMAP hot-spot: SoftmaxCE used to allocate two slices
// per training step).
type stepScratch struct {
	dlogits []float64
	dout    [1]float64
}

// Trainer is the data-parallel mini-batch training engine. Each
// mini-batch is fanned out across Workers goroutines; every worker
// runs forward+backward on its own shared-weight model replica,
// accumulating gradients into a private shard, and the shards are
// reduced into the master parameters in worker order before the
// optimizer step.
//
// There is one loop; the worker count changes only where dropout draws
// from:
//   - Workers == 1 draws dropout from the training RNG, between the
//     epoch shuffles and in example order — the stream training has
//     used since before the engine existed, bit for bit.
//   - Workers > 1 derives each example's dropout RNG from (Seed, epoch,
//     batch slot), so dropout masks do not depend on the worker count
//     or goroutine scheduling. For a fixed worker count results are
//     fully deterministic; across different worker counts (including
//     vs. Workers == 1 with dropout disabled) final weights agree up to
//     floating-point summation order (~1e-12 per step).
type Trainer struct {
	// Workers is the number of training workers per batch.
	// <= 0 selects min(GOMAXPROCS, batch size).
	Workers int
	// Seed drives the per-example dropout RNGs (Workers > 1).
	Seed int64
	// Batch is the mini-batch size (examples per optimizer step).
	Batch int
	// Epochs is the number of passes over the data.
	Epochs int
}

// NewTrainer builds a Trainer from training hyper-parameters.
func NewTrainer(cfg Config) Trainer {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	return Trainer{Workers: cfg.Workers, Seed: cfg.Seed, Batch: batch, Epochs: cfg.Epochs}
}

// resolveWorkers caps the worker count at the batch size and defaults
// it to GOMAXPROCS.
func (t Trainer) resolveWorkers() int {
	w := t.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > t.Batch {
		w = t.Batch
	}
	if w < 1 {
		w = 1
	}
	return w
}

// trainWorker is one training worker: a step function bound to a model
// replica, plus the gradient shard reduced after each batch (nil for
// worker 0, which accumulates directly into the master parameters).
type trainWorker struct {
	step  func(rng *rand.Rand, i int)
	grads *nn.GradBuffer
}

// run executes the epoch/batch/reduce/step skeleton. newWorker(w) builds
// worker w's replica-bound step function; it is called once per worker
// up front. rng drives the epoch shuffles. Worker 0's share of each
// batch runs on the calling goroutine and every other worker's on a
// goroutine of its own; state is bound to the worker index, not to a
// goroutine. With one worker no goroutine starts and nothing is reduced,
// and the one thing that differs is the dropout stream (see Trainer).
func (t Trainer) run(n int, rng *rand.Rand, opt *nn.Optimizer, params []*nn.Param,
	newWorker func(w int) trainWorker) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	workers := t.resolveWorkers()
	state := make([]trainWorker, workers)
	rngs := make([]*rand.Rand, workers)
	for w := range state {
		state[w] = newWorker(w)
		rngs[w] = rand.New(rand.NewSource(0))
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
				wrng.Seed(exampleSeed(t.Seed, e, k))
			}
			state[w].step(wrng, order[k])
		}
	}
	for e = 0; e < t.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start = 0; start < n; start += t.Batch {
			end = start + t.Batch
			if end > n {
				end = n
			}
			wg.Add(workers - 1)
			for w := 1; w < workers; w++ {
				go func() {
					defer wg.Done()
					batchJob(w)
				}()
			}
			batchJob(0)
			wg.Wait()
			// Reduce worker shards in worker order so the accumulation
			// order is deterministic for a fixed worker count.
			for w := 1; w < workers; w++ {
				state[w].grads.ReduceInto(params)
			}
			scaleAndStep(opt, params, end-start)
		}
	}
}

// trainModel runs the engine over a model implementing the generic
// Forward/Backward interface. step must run forward+backward for
// example i on the given replica with the given dropout RNG, using sc
// for per-step loss scratch (one scratch per worker).
func (t Trainer) trainModel(model nn.Model, opt *nn.Optimizer, params []*nn.Param,
	n int, rng *rand.Rand, step func(m nn.Model, sc *stepScratch, rng *rand.Rand, i int)) {
	pm, parallel := model.(nn.ParallelModel)
	if !parallel {
		t.Workers = 1
	}
	t.run(n, rng, opt, params, func(w int) trainWorker {
		sc := &stepScratch{}
		if w == 0 {
			return trainWorker{step: func(rng *rand.Rand, i int) { step(model, sc, rng, i) }}
		}
		replica := pm.CloneShared()
		return trainWorker{
			step:  func(rng *rand.Rand, i int) { step(replica, sc, rng, i) },
			grads: nn.NewGradBuffer(replica.Params()),
		}
	})
}

// scaleAndStep averages the summed batch gradient and applies one
// optimizer update.
func scaleAndStep(opt *nn.Optimizer, params []*nn.Param, batchLen int) {
	scale := 1.0 / float64(batchLen)
	for _, p := range params {
		for k := range p.G {
			p.G[k] *= scale
		}
	}
	opt.Step(params)
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
