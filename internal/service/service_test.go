package service

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/workload"
)

// testSplit builds one small fixed workload shared by the tests.
var testSplit = sync.OnceValue(func() workload.Split {
	w := synth.NewSDSS(synth.SDSSConfig{Sessions: 350, HitsPerSessionMax: 2, Seed: 9}).Generate()
	return workload.RandomSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(7)))
})

func trainCCNN(t testing.TB, task core.Task) *core.Model {
	t.Helper()
	m, err := core.Train("ccnn", task, testSplit().Train, core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testStatements(n int) []string {
	items := testSplit().Test
	if len(items) > n {
		items = items[:n]
	}
	stmts := make([]string, len(items))
	for i, item := range items {
		stmts[i] = item.Statement
	}
	return stmts
}

// TestRegisterDeployPredict covers the basic lifecycle: register,
// deploy, predict, with provenance and listing metadata.
func TestRegisterDeployPredict(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 2}})
	defer s.Close()
	m := trainCCNN(t, core.ErrorClassification)
	ctx := context.Background()
	stmt := testStatements(1)[0]

	if _, err := s.Predict(ctx, "errors", stmt); !errors.Is(err, ErrNotFound) {
		t.Fatalf("predict before register err = %v, want ErrNotFound", err)
	}
	info, err := s.Register("errors", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Live {
		t.Fatalf("register info = %+v", info)
	}
	if _, err := s.Predict(ctx, "errors", stmt); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("predict before deploy err = %v, want ErrNotDeployed", err)
	}
	info, err = s.Deploy("errors", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Live || info.LiveVersion != 1 {
		t.Fatalf("deploy info = %+v", info)
	}

	pr, err := s.Predict(ctx, "errors", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Classification || pr.Name != "errors" || pr.Version != 1 {
		t.Fatalf("prediction provenance = %+v", pr)
	}
	if want := m.PredictClass(stmt); pr.Class != want {
		t.Fatalf("Class = %d, want %d", pr.Class, want)
	}
	wantProbs := m.Probs(stmt)
	for c := range wantProbs {
		if pr.Probs[c] != wantProbs[c] {
			t.Fatal("probs differ from source model")
		}
	}

	models := s.Models()
	if len(models) != 1 || models[0].Name != "errors" || models[0].LiveVersion != 1 {
		t.Fatalf("Models() = %+v", models)
	}
	snap, err := s.StatsSnapshot("errors")
	if err != nil || snap.Stats.Completed == 0 || snap.Info.Version != 1 {
		t.Fatalf("StatsSnapshot = %+v, %v", snap, err)
	}
}

// TestRegistryValidation covers the error paths: nil model, mismatched
// task/kind on re-register, unknown versions, unknown names.
func TestRegistryValidation(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1}})
	defer s.Close()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s.Register("m", nil); err == nil {
		t.Fatal("nil model registered")
	}
	if _, err := s.Register("m", m); err != nil {
		t.Fatal(err)
	}
	reg := trainCCNN(t, core.AnswerSizePrediction)
	if _, err := s.Register("m", reg); err == nil {
		t.Fatal("task-mismatched model registered under same name")
	}
	if _, err := s.Deploy("m", 3); err == nil {
		t.Fatal("deployed unregistered version")
	}
	if _, err := s.Deploy("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deploy ghost err = %v", err)
	}
	if _, err := s.StatsSnapshot("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stats ghost err = %v", err)
	}
	if _, err := s.StatsSnapshot("m"); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("stats undeployed err = %v", err)
	}
}

// TestRegisteredSnapshotImmune checks the registry stores a snapshot:
// fine-tuning the caller's model after Register must not move the
// deployed version's predictions.
func TestRegisteredSnapshotImmune(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 2}})
	defer s.Close()
	m := trainCCNN(t, core.ErrorClassification)
	stmts := testStatements(15)
	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := make([][]float64, len(stmts))
	for i, stmt := range stmts {
		pr, err := s.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pr.Probs
	}
	if _, err := core.FineTune(m, testSplit().Valid, core.TinyConfig()); err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		pr, err := s.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		for c := range pr.Probs {
			if pr.Probs[c] != want[i][c] {
				t.Fatal("deployed predictions moved when the source model was fine-tuned")
			}
		}
	}
}

// TestSwapUnderLoad is the zero-downtime acceptance test: concurrent
// clients hammer a deployed model while v2 (a fine-tuned copy) is
// swapped in. Every request must succeed and return a distribution
// bit-identical to EITHER v1 or v2 — never an error, never a blend of
// the two weight sets — and after the swap settles, new requests must
// come from v2.
func TestSwapUnderLoad(t *testing.T) {
	split := testSplit()
	cfg := core.TinyConfig()
	m, err := core.Train("ccnn", core.ErrorClassification, split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stmts := testStatements(25)

	s := New(Options{Serve: serve.Options{Replicas: 2}})
	defer s.Close()
	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}

	// v1 expectations from the deployed service itself (pre-swap), v2
	// from the fine-tuned model directly.
	ctx := context.Background()
	v1 := make([][]float64, len(stmts))
	for i, stmt := range stmts {
		pr, err := s.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		v1[i] = pr.Probs
	}
	if _, err := core.FineTune(m, split.Valid, cfg); err != nil {
		t.Fatal(err)
	}
	v2 := make([][]float64, len(stmts))
	for i, stmt := range stmts {
		v2[i] = m.Probs(stmt)
	}

	matches := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for c := range got {
			if got[c] != want[c] {
				return false
			}
		}
		return true
	}

	stop := make(chan struct{})
	errs := make(chan error, 32)
	var sawV2 bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := i % len(stmts)
				pr, err := s.Predict(ctx, "errors", stmts[idx])
				if err != nil {
					errs <- err
					return
				}
				fromV1 := matches(pr.Probs, v1[idx])
				fromV2 := matches(pr.Probs, v2[idx])
				switch {
				case fromV1 && pr.Version == 1, fromV2 && pr.Version == 2:
					if fromV2 {
						mu.Lock()
						sawV2 = true
						mu.Unlock()
					}
				default:
					errs <- errors.New("prediction matches neither v1 nor v2 exactly (mixed weights?)")
					return
				}
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // let load establish on v1
	info, err := s.Swap("errors", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || !info.Live {
		t.Fatalf("swap info = %+v", info)
	}
	time.Sleep(20 * time.Millisecond) // load continues on v2
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Post-swap, the service must answer from v2.
	pr, err := s.Predict(ctx, "errors", stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 || !matches(pr.Probs, v2[0]) {
		t.Fatal("post-swap prediction is not v2")
	}
	mu.Lock()
	defer mu.Unlock()
	if !sawV2 {
		t.Log("load never observed v2 mid-flight (timing); post-swap check covered it")
	}
}

// TestRollback checks Deploy can move backward: after v2 is live,
// deploying version 1 again restores v1's exact predictions.
func TestRollback(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1}})
	defer s.Close()
	cfg := core.TinyConfig()
	m := trainCCNN(t, core.ErrorClassification)
	stmt := testStatements(1)[0]
	ctx := context.Background()

	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	pr1, err := s.Predict(ctx, "errors", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.FineTune(m, testSplit().Valid, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy("errors", 1); err != nil {
		t.Fatal(err)
	}
	pr, err := s.Predict(ctx, "errors", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Version != 1 {
		t.Fatalf("rolled-back version = %d", pr.Version)
	}
	for c := range pr.Probs {
		if pr.Probs[c] != pr1.Probs[c] {
			t.Fatal("rollback did not restore v1 predictions exactly")
		}
	}
}

// TestRegressionPrediction covers the regression task path through the
// service (log and raw values, provenance).
func TestRegressionPrediction(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1}})
	defer s.Close()
	m := trainCCNN(t, core.AnswerSizePrediction)
	if _, err := s.Swap("rows", m); err != nil {
		t.Fatal(err)
	}
	stmt := testStatements(1)[0]
	pr, err := s.Predict(context.Background(), "rows", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Classification {
		t.Fatal("regression marked classification")
	}
	if pr.Log != m.PredictLog(stmt) || pr.Raw != m.PredictRaw(stmt) {
		t.Fatalf("log/raw = %v/%v, want %v/%v", pr.Log, pr.Raw, m.PredictLog(stmt), m.PredictRaw(stmt))
	}
	again, err := s.PredictInto(context.Background(), "rows", stmt, nil)
	if err != nil || again.Raw != pr.Raw {
		t.Fatalf("PredictInto raw = %v, %v", again.Raw, err)
	}
}

// TestObserveRejectsClassOutOfRange checks that feedback carrying a
// class the model cannot have is refused as the caller's mistake —
// ErrBadRequest, 400 on both transports — and never reaches the ingest
// log, where the online learner would train on it; a valid class and
// any class sent for a regression model (which ignores it) are logged.
func TestObserveRejectsClassOutOfRange(t *testing.T) {
	w, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New(Options{Serve: serve.Options{Replicas: 1}, Ingest: w})
	defer s.Close()
	if _, err := s.Swap("errors", trainCCNN(t, core.ErrorClassification)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("rows", trainCCNN(t, core.AnswerSizePrediction)); err != nil {
		t.Fatal(err)
	}
	n := core.ErrorClassification.NumClasses()
	for _, class := range []int{-1, n, 7} {
		err := s.Observe("errors", "SELECT 1", class, 0)
		if !errors.Is(err, ErrBadRequest) || StatusFor(err) != http.StatusBadRequest {
			t.Fatalf("Observe(class %d) = %v, want ErrBadRequest (400)", class, err)
		}
	}
	for _, obs := range []struct {
		model string
		class int
	}{{"errors", 0}, {"errors", n - 1}, {"rows", 7}} {
		if err := s.Observe(obs.model, "SELECT 1", obs.class, 3); err != nil {
			t.Fatalf("Observe(%s, class %d): %v", obs.model, obs.class, err)
		}
	}
	snap, err := s.StatsSnapshot("errors")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Online.Observed != 3 || snap.Online.Dropped != 0 {
		t.Fatalf("ingest counters = %+v, want 3 observed, 0 dropped", *snap.Online)
	}
}

// TestServiceDeadline checks ctx deadlines propagate through the
// service to the serving layer.
func TestServiceDeadline(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1}})
	defer s.Close()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, "errors", testStatements(1)[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestServiceClose checks Close drains pools and flips every operation
// to ErrClosed, idempotently, including under concurrent predictions.
func TestServiceClose(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 2}})
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	stmt := testStatements(1)[0]
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := s.Predict(ctx, "errors", stmt); err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- err
					}
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Close()
	}()
	wg.Wait()
	s.Close()
	select {
	case err := <-errs:
		t.Fatalf("prediction failed with non-ErrClosed: %v", err)
	default:
	}
	if _, err := s.Register("x", m); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close err = %v", err)
	}
	if _, err := s.Deploy("errors", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("deploy after close err = %v", err)
	}
}

// TestPredictBatch checks the batch path returns input-ordered results
// equal to single predictions, for both task families, and shares the
// single-path error semantics.
func TestPredictBatch(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 2}})
	defer s.Close()
	cls := trainCCNN(t, core.ErrorClassification)
	reg := trainCCNN(t, core.AnswerSizePrediction)
	if _, err := s.Swap("errors", cls); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("rows", reg); err != nil {
		t.Fatal(err)
	}
	stmts := testStatements(20)
	ctx := context.Background()

	out, err := s.PredictBatch(ctx, "errors", stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		want, err := s.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Class != want.Class || out[i].Version != 1 || !out[i].Classification {
			t.Fatalf("batch[%d] = %+v, want class %d", i, out[i], want.Class)
		}
		for c := range want.Probs {
			if out[i].Probs[c] != want.Probs[c] {
				t.Fatalf("batch[%d] probs differ from single path", i)
			}
		}
	}
	rout, err := s.PredictBatch(ctx, "rows", stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		if rout[i].Log != reg.PredictLog(stmt) || rout[i].Raw != reg.PredictRaw(stmt) {
			t.Fatalf("regression batch[%d] = %+v", i, rout[i])
		}
	}

	if _, err := s.PredictBatch(ctx, "ghost", stmts); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost err = %v", err)
	}
	s.Close()
	_, err = s.PredictBatch(ctx, "errors", stmts)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("closed err = %v", err)
	}
	// The service sentinel wraps the serving-layer one: a single
	// facade-level errors.Is covers closed at either layer.
	if !errors.Is(ErrClosed, serve.ErrClosed) {
		t.Fatal("service.ErrClosed does not wrap serve.ErrClosed")
	}
}
