package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workload"
)

// This file routes the harness's evaluation loops through the serving
// layer: test statements are fanned across a serve.Predictor replica
// pool instead of being fed to the model one at a time. Pooled
// predictions are bit-identical to sequential Model calls, so every
// table and figure is unchanged — only wall-clock time improves on
// multi-core machines (and the serve path gets exercised by the whole
// experiment suite, including under -race in CI).
//
// Each eval call builds and closes its own short-lived Predictor.
// Construction is cheap relative to what it serves — weight-sharing
// replica clones, microseconds against the seconds each cached model
// took to train — so there is nothing worth caching in Env (a
// Predictor owns no goroutine; a cached one would only pin the
// replicas' scratch for the Env's whole lifetime).

// evalClassifier computes classification metrics for m on test,
// fanning the predictions across a pool of GOMAXPROCS replicas.
func evalClassifier(m *core.Model, task core.Task, test []workload.Item) core.EvalClassification {
	p := serve.NewPredictor(m, serve.Options{})
	defer p.Close()
	probs, err := p.ProbsBatchCtx(context.Background(), workload.Statements(test))
	if err != nil {
		// The pool is private, never closed early, and blocks rather than
		// rejects: only a model panic can land here.
		panic(err)
	}
	return core.ClassificationEval(probs, task, test)
}

// evalRegressor computes regression metrics for m on test, fanning the
// predictions across a pool of GOMAXPROCS replicas.
func evalRegressor(m *core.Model, task core.Task, test []workload.Item) core.EvalRegression {
	p := serve.NewPredictor(m, serve.Options{})
	defer p.Close()
	logs, err := p.PredictLogBatchCtx(context.Background(), workload.Statements(test))
	if err != nil {
		panic(err) // as in evalClassifier: a model panic, re-raised
	}
	return core.RegressionEval(logs, m.LogMin, task, test)
}
