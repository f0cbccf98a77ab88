package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/workload"
)

// testData builds one small fixed workload shared by the tests.
var testData = sync.OnceValue(func() workload.Split {
	g := synth.NewSDSS(synth.SDSSConfig{Sessions: 400, HitsPerSessionMax: 2, Seed: 11})
	w := g.Generate()
	return workload.RandomSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(3)))
})

// trainedModels trains every Train-able model kind (the opt baseline
// predicts from optimizer estimates, not statements, so it has no
// Predictor path) on the task matching its type.
func trainedModels(t testing.TB) map[string]*core.Model {
	t.Helper()
	split := testData()
	cfg := core.TinyConfig()
	out := map[string]*core.Model{}
	for _, name := range []string{"mfreq", "median", "ctfidf", "wtfidf", "ccnn", "wcnn", "clstm", "wlstm"} {
		task := core.ErrorClassification
		if name == "median" {
			task = core.CPUTimePrediction
		}
		m, err := core.Train(name, task, split.Train, cfg)
		if err != nil {
			t.Fatalf("train %s: %v", name, err)
		}
		out[name] = m
	}
	// A neural regressor, so the regression path is covered beyond the
	// median baseline.
	m, err := core.Train("ccnn", core.AnswerSizePrediction, split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["ccnn-reg"] = m
	return out
}

func testStatements(n int) []string {
	split := testData()
	items := split.Test
	if len(items) > n {
		items = items[:n]
	}
	stmts := make([]string, len(items))
	for i, item := range items {
		stmts[i] = item.Statement
	}
	return stmts
}

// raggedStatements returns exactly n statements: the test split's,
// repeated with each lap cut shorter, so a long batch has distinct rows
// of very different lengths.
func raggedStatements(n int) []string {
	base := testStatements(n)
	stmts := make([]string, n)
	for i := range stmts {
		s := base[i%len(base)]
		stmts[i] = s[:len(s)>>(i/len(base))]
	}
	return stmts
}

// pooledClass is the argmax class of one pooled prediction, with
// core.Model.PredictClass's tie-breaking (first maximum; 0 for
// regression models).
func pooledClass(ctx context.Context, p *Predictor, stmt string) (int, error) {
	probs, err := p.ProbsIntoCtx(ctx, stmt, nil)
	best := 0
	for c := range probs {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return best, err
}

// TestPredictorBitIdenticalToModel checks the core serving guarantee:
// a pooled Predictor returns results bit-identical to direct
// sequential Model calls, for every model kind, including under
// concurrent load.
func TestPredictorBitIdenticalToModel(t *testing.T) {
	models := trainedModels(t)
	stmts := testStatements(60)
	for name, m := range models {
		classification := m.Task.IsClassification()
		// Direct (sequential) expectations first; the predictor uses
		// replicas, so the original model's scratch is untouched.
		wantProbs := make([][]float64, len(stmts))
		wantClass := make([]int, len(stmts))
		wantLog := make([]float64, len(stmts))
		for i, s := range stmts {
			if classification {
				wantProbs[i] = m.Probs(s)
				wantClass[i] = m.PredictClass(s)
			} else {
				wantLog[i] = m.PredictLog(s)
			}
		}
		p := NewPredictor(m, Options{Replicas: 4})
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, 0, 16)
				for i, s := range stmts {
					if classification {
						var err error
						if dst, err = p.ProbsIntoCtx(ctx, s, dst); err != nil {
							errs <- name + ": " + err.Error()
							return
						}
						for c := range dst {
							if dst[c] != wantProbs[i][c] {
								errs <- name + ": probs mismatch"
								return
							}
						}
						if cls, err := pooledClass(ctx, p, s); err != nil || cls != wantClass[i] {
							errs <- name + ": class mismatch"
							return
						}
					} else if v, err := p.PredictLogCtx(ctx, s); err != nil || v != wantLog[i] {
						errs <- name + ": log mismatch"
						return
					}
				}
			}()
		}
		wg.Wait()
		p.Close()
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
	}
}

// TestPredictorBatchAPIs checks ProbsBatchCtx/PredictLogBatchCtx order
// and equality with sequential calls.
func TestPredictorBatchAPIs(t *testing.T) {
	models := trainedModels(t)
	stmts := testStatements(40)
	ctx := context.Background()

	cls := models["clstm"]
	p := NewPredictor(cls, Options{Replicas: 3})
	probs, err := p.ProbsBatchCtx(ctx, stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stmts {
		want := cls.Probs(s)
		for c := range want {
			if probs[i][c] != want[c] {
				t.Fatalf("ProbsBatch[%d] differs from sequential", i)
			}
		}
	}
	p.Close()

	reg := models["ccnn-reg"]
	pr := NewPredictor(reg, Options{Replicas: 3})
	defer pr.Close()
	logs, err := pr.PredictLogBatchCtx(ctx, stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stmts {
		if want := reg.PredictLog(s); logs[i] != want {
			t.Fatalf("PredictLogBatch[%d] = %v, want %v", i, logs[i], want)
		}
	}
	if raw := metrics.InverseLogTransform(logs[0], pr.Model().LogMin); raw != reg.PredictRaw(stmts[0]) {
		t.Fatal("raw-unit prediction differs from sequential")
	}
}

// TestPredictorStats checks the observability snapshot: counts,
// latency percentiles, and throughput all populate.
func TestPredictorStats(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	p := NewPredictor(m, Options{Replicas: 2})
	defer p.Close()
	stmts := testStatements(50)
	if _, err := p.ProbsBatchCtx(context.Background(), stmts); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Completed != uint64(len(stmts)) {
		t.Fatalf("Completed = %d, want %d", s.Completed, len(stmts))
	}
	if s.P50 <= 0 || s.P99 < s.P50 {
		t.Fatalf("latency percentiles p50=%v p99=%v", s.P50, s.P99)
	}
	if s.Throughput <= 0 || s.Uptime <= 0 {
		t.Fatalf("throughput=%v uptime=%v", s.Throughput, s.Uptime)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("QueueDepth = %d after drain", s.QueueDepth)
	}
	if s.String() == "" {
		t.Fatal("empty Stats.String()")
	}
}

// TestPredictorMicroBatches checks how a batch longer than MaxBatch
// travels: cut into ceil(n/MaxBatch) requests, each one batched
// forward, with the results back in input order.
func TestPredictorMicroBatches(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	p := NewPredictor(m, Options{Replicas: 2, MaxBatch: 16})
	defer p.Close()
	stmts := raggedStatements(40)
	probs, err := p.ProbsBatchCtx(context.Background(), stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stmts {
		want := m.Probs(s)
		for c := range want {
			if probs[i][c] != want[c] {
				t.Fatalf("row %d is not statement %d's prediction", i, i)
			}
		}
	}
	s := p.Stats()
	if s.Completed != uint64(len(stmts)) {
		t.Fatalf("Completed = %d", s.Completed)
	}
	if got := requestsServed(p); got != 3 {
		t.Fatalf("40 statements at MaxBatch 16 became %d requests, want 3", got)
	}
	// Two requests of 16 and one of 8: (16*16 + 16*16 + 8*8) / 40.
	if s.EffectiveBatch != 14.4 {
		t.Fatalf("EffectiveBatch = %v, want 14.4", s.EffectiveBatch)
	}
}

// TestPredictorCloseIdempotent checks Close twice is safe (post-Close
// use returning ErrClosed is TestCtxMethodsReturnErrClosed's).
func TestPredictorCloseIdempotent(t *testing.T) {
	m := trainedModels(t)["mfreq"]
	p := NewPredictor(m, Options{Replicas: 2})
	if got, err := pooledClass(context.Background(), p, "SELECT 1"); err != nil || got != m.PredictClass("SELECT 1") {
		t.Fatal("prediction before close")
	}
	p.Close()
	p.Close()
}

// TestPredictorAllocFree proves the warm serve path performs zero
// allocations per prediction for the neural models: pooled requests,
// reused done channels, per-replica encoders and softmax scratch.
func TestPredictorAllocFree(t *testing.T) {
	models := trainedModels(t)
	stmt := testStatements(1)[0]
	ctx := context.Background()
	for _, name := range []string{"ccnn", "wcnn", "clstm", "wlstm", "ccnn-reg"} {
		m := models[name]
		p := NewPredictor(m, Options{Replicas: 1})
		dst := make([]float64, 0, 8)
		// Warm up the request pool and replica scratch.
		for i := 0; i < 8; i++ {
			dst, _ = p.ProbsIntoCtx(ctx, stmt, dst)
			p.PredictLogCtx(ctx, stmt)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			dst, _ = p.ProbsIntoCtx(ctx, stmt, dst)
		}); allocs != 0 {
			t.Errorf("%s: ProbsIntoCtx allocs/op = %v, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			p.PredictLogCtx(ctx, stmt)
		}); allocs != 0 {
			t.Errorf("%s: PredictLogCtx allocs/op = %v, want 0", name, allocs)
		}
		p.Close()
	}
}

// TestModelWarmPredictAllocFree proves the direct (unpooled) warm
// predict path is allocation-free for the neural models, and that
// Replicate produces independent bit-identical predictors.
func TestModelWarmPredictAllocFree(t *testing.T) {
	models := trainedModels(t)
	stmt := testStatements(1)[0]
	for _, name := range []string{"ccnn", "wcnn", "clstm", "wlstm"} {
		m := models[name]
		r := m.Replicate()
		if r == m {
			t.Fatalf("%s: Replicate returned the receiver for a neural model", name)
		}
		want := m.Probs(stmt)
		got := r.Probs(stmt)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("%s: replica disagrees with original", name)
			}
		}
		dst := make([]float64, 0, 8)
		for i := 0; i < 4; i++ { // warm the scratch
			dst = r.ProbsInto(stmt, dst)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			dst = r.ProbsInto(stmt, dst)
		}); allocs != 0 {
			t.Errorf("%s: warm ProbsInto allocs/op = %v, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			r.PredictClass(stmt)
		}); allocs != 0 {
			t.Errorf("%s: warm PredictClass allocs/op = %v, want 0", name, allocs)
		}
	}
	// Regression path too.
	reg := models["ccnn-reg"].Replicate()
	stmt2 := stmt
	reg.PredictLog(stmt2)
	if allocs := testing.AllocsPerRun(200, func() {
		reg.PredictLog(stmt2)
	}); allocs != 0 {
		t.Errorf("regression: warm PredictLog allocs/op = %v, want 0", allocs)
	}
}

// TestPredictorBaselineSharing checks that stateless models serve
// correctly even though Replicate returns the shared instance.
func TestPredictorBaselineSharing(t *testing.T) {
	models := trainedModels(t)
	for _, name := range []string{"mfreq", "median", "ctfidf", "wtfidf"} {
		m := models[name]
		if r := m.Replicate(); r != m {
			t.Fatalf("%s: stateless model should replicate to itself", name)
		}
		p := NewPredictor(m, Options{Replicas: 4})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, s := range testStatements(20) {
					if m.Task.IsClassification() {
						p.ProbsIntoCtx(context.Background(), s, nil)
					} else {
						p.PredictLogCtx(context.Background(), s)
					}
				}
			}()
		}
		wg.Wait()
		p.Close()
	}
}
