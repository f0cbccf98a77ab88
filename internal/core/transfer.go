package core

import (
	"fmt"
	"math/rand"

	"repro/internal/f64"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sqllex"
	"repro/internal/workload"
)

// FineTune continues training a neural model on a new workload — the
// transfer-learning direction the paper proposes in Section 8 ("apply
// transfer-learning ideas to improve ccnn under heterogeneous
// settings"). The source model's token embeddings and convolutional /
// recurrent features are reused; the target workload drives further
// gradient steps at the (typically smaller) learning rate in cfg.
// Target-workload tokens absent from the source vocabulary map to the
// unknown token — which is exactly why character-level models transfer
// so much better than word-level ones (characters are shared across
// schemas, table names are not).
//
// Fine-tuning mutates m's parameters and returns m for chaining. It
// fails for baseline and TF-IDF models, whose feature spaces are
// frozen at fit time, and for a Replicate copy, which is inference-only
// and shares its weights with whatever its siblings are serving:
// fine-tune the original or a Snapshot. Replicas made from m before the
// call hold layouts of the old weights and must be discarded. A class
// label outside the task's range fails the call before any step, with
// m's weights untouched. FineTune and Train share one training loop
// (fit); FineTune starts it from m's weights.
func FineTune(m *Model, train []workload.Item, cfg Config) (*Model, error) {
	if m.neural.model == nil {
		return nil, fmt.Errorf("core: model %q cannot be fine-tuned (no neural backend)", m.Name)
	}
	if m.frozen {
		return nil, fmt.Errorf("core: model %q is a Replicate copy and cannot be fine-tuned (fine-tune the original or a Snapshot)", m.Name)
	}
	var logs []float64
	if !m.Task.IsClassification() {
		// Regression: keep the SOURCE transform minimum so predictions
		// stay on a single consistent scale across source and target.
		_, raw := m.Task.Labels(train)
		logs = make([]float64, len(raw))
		for i, v := range raw {
			logs[i] = logWithMin(v, m.LogMin)
		}
	}
	// A fresh training RNG and dropout seed, distinct from pre-training's.
	if err := m.fit(train, logs, cfg, rand.New(rand.NewSource(cfg.Seed+1)), cfg.Seed+1); err != nil {
		return nil, err
	}
	return m, nil
}

// TransferResult reports a source->target transfer experiment.
type TransferResult struct {
	SourceOnly  float64 // target-test loss of the source model as-is
	FineTuned   float64 // after fine-tuning on the target train set
	FromScratch float64 // a fresh model trained only on the target
}

// TransferExperiment measures whether pre-training on a source
// workload helps on a target workload: it evaluates the source model
// zero-shot, after fine-tuning, and against a from-scratch baseline.
// Only regression tasks are supported (the paper's cross-workload
// problem is CPU-time prediction).
func TransferExperiment(name string, task Task, source, targetTrain, targetTest []workload.Item, cfg Config) (TransferResult, error) {
	if task.IsClassification() {
		return TransferResult{}, fmt.Errorf("core: transfer experiment supports regression tasks only")
	}
	src, err := Train(name, task, source, cfg)
	if err != nil {
		return TransferResult{}, err
	}
	var res TransferResult
	res.SourceOnly = EvaluateRegressor(src, task, targetTest).Loss

	if _, err := FineTune(src, targetTrain, cfg); err != nil {
		return TransferResult{}, err
	}
	res.FineTuned = EvaluateRegressor(src, task, targetTest).Loss

	scratch, err := Train(name, task, targetTrain, cfg)
	if err != nil {
		return TransferResult{}, err
	}
	res.FromScratch = EvaluateRegressor(scratch, task, targetTest).Loss
	return res, nil
}

// MultiTaskModel predicts error class, answer size, and CPU time from
// one shared encoder — the multi-task direction of Section 8 ("use
// multi-task models that learn correlations between the query labels").
// The encoder is a character CNN (nn.CNNModel) whose own dense layer is
// the error head; two regression heads read the same features, and
// training sums the three losses.
type MultiTaskModel struct {
	V, P int

	enc   *nn.CNNModel    // enc.FC: error logits (3)
	headA *nn.Dense       // answer size (1)
	headC *nn.Dense       // CPU time (1)
	lex   *sqllex.Encoder // statement → token ids, as serving encodes
	// Log-transform minima for the two regression heads.
	AnsLogMin, CPULogMin float64

	// Reusable scratch (one example in flight at a time per instance;
	// parallel training gives each worker its own replica).
	dE           []float64
	doutA, doutC [1]float64
}

// MultiTaskPrediction bundles the three predictions.
type MultiTaskPrediction struct {
	ErrorProbs []float64
	ErrorClass int
	AnswerSize float64 // rows, raw space
	CPUTime    float64 // seconds, raw space
}

// TrainMultiTask fits the shared-encoder model on an SDSS-style
// workload (character granularity).
func TrainMultiTask(train []workload.Item, cfg Config) (*MultiTaskModel, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := sqllex.BuildVocabulary(tokenizeAll("ccnn", train), 0)
	m := &MultiTaskModel{lex: sqllex.NewEncoder(vocab, false, cfg.CharMaxLen), V: vocab.Size()}
	encoded := encodeAll(m.lex, train)
	m.enc = nn.NewCNN(nn.CNNConfig{
		Vocab: vocab.Size(), Embed: cfg.Embed, Widths: cfg.Widths,
		Kernels: cfg.Kernels, Dropout: cfg.Dropout, Outputs: ErrorClassification.NumClasses(),
	}, rng)
	m.headA = nn.NewDense("headA", m.enc.FC.In, 1, rng)
	m.headC = nn.NewDense("headC", m.enc.FC.In, 1, rng)

	errLabels, _ := ErrorClassification.Labels(train)
	_, ansRaw := AnswerSizePrediction.Labels(train)
	_, cpuRaw := CPUTimePrediction.Labels(train)
	ansLogs, ansMin := metrics.LogTransform(ansRaw)
	cpuLogs, cpuMin := metrics.LogTransform(cpuRaw)
	m.AnsLogMin, m.CPULogMin = ansMin, cpuMin
	m.headA.B.W[0] = meanOf(ansLogs)
	m.headC.B.W[0] = meanOf(cpuLogs)

	params := m.params()
	m.P = nn.ParamCount(params)
	opt := nn.NewOptimizer(learningRate, clip)

	trainLoop(cfg, cfg.Seed, len(train), rng, opt, params, func() trainWorker {
		// A training replica: shared weights, private gradients and
		// scratch (see nn.Model.CloneShared).
		rep := &MultiTaskModel{
			enc:   m.enc.CloneShared().(*nn.CNNModel),
			headA: m.headA.CloneShared(),
			headC: m.headC.CloneShared(),
		}
		return trainWorker{
			step: func(wrng *rand.Rand, i int) {
				rep.step(encoded[i], errLabels[i], ansLogs[i], cpuLogs[i], wrng)
			},
			grads: rep.params(),
		}
	})
	return m, nil
}

// params lists the encoder's parameters (embedding, banks, error head),
// then the answer and CPU heads'.
func (m *MultiTaskModel) params() []*nn.Param {
	return append(append(m.enc.Params(), m.headA.Params()...), m.headC.Params()...)
}

// step runs one multi-task forward/backward accumulation: the three
// heads' losses over one set of features, their gradients summed into
// the encoder's backward pass.
func (m *MultiTaskModel) step(ids []int, errLabel int, ansLog, cpuLog float64, rng *rand.Rand) {
	feat, cache := m.enc.Features(ids, true, rng)

	outE := m.enc.FC.Forward(feat)
	nn.SoftmaxCEInto(outE, errLabel, growFloats(&m.dE, len(outE)))
	outA := m.headA.Forward(feat)
	_, dA := nn.HuberLoss(outA[0], ansLog, 1)
	outC := m.headC.Forward(feat)
	_, dC := nn.HuberLoss(outC[0], cpuLog, 1)

	dfeat := m.enc.FC.Backward(feat, m.dE)
	m.doutA[0] = dA
	dfeatA := m.headA.Backward(feat, m.doutA[:])
	m.doutC[0] = dC
	dfeatC := m.headC.Backward(feat, m.doutC[:])
	f64.AddTo(dfeat, dfeatA)
	f64.AddTo(dfeat, dfeatC)
	m.enc.BackwardFeatures(ids, cache, dfeat)
}

// Predict returns all three property predictions for a statement.
func (m *MultiTaskModel) Predict(stmt string) MultiTaskPrediction {
	ids := m.lex.Encode(stmt)
	feat, _ := m.enc.Features(ids, false, nil)
	probs := nn.Softmax(m.enc.FC.Forward(feat))
	ans := m.headA.Forward(feat)[0]
	cpu := m.headC.Forward(feat)[0]
	return MultiTaskPrediction{
		ErrorProbs: probs,
		ErrorClass: argmax(probs),
		AnswerSize: metrics.InverseLogTransform(ans, m.AnsLogMin),
		CPUTime:    metrics.InverseLogTransform(cpu, m.CPULogMin),
	}
}

// PredictLog returns the log-space regression outputs (answer, cpu).
func (m *MultiTaskModel) PredictLog(stmt string) (ansLog, cpuLog float64) {
	ids := m.lex.Encode(stmt)
	feat, _ := m.enc.Features(ids, false, nil)
	return m.headA.Forward(feat)[0], m.headC.Forward(feat)[0]
}
