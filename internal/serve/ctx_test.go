package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// parkedPredictor builds a one-replica predictor over a ccnn whose
// replica is on loan to a call parked inside the model (gateModel), so
// what every other caller meets — admission, deadlines, Close — is
// deterministic. seen counts the statements the model was shown (the
// gate is the first), release lets the holder finish and holder
// delivers its error.
func parkedPredictor(t *testing.T, opts Options) (p *Predictor, seen *atomic.Int64, holder <-chan error, release func()) {
	t.Helper()
	m := trainedModels(t)["ccnn"]
	gate := "GATE :: " + testStatements(1)[0]
	seen, entered, release := gateModel(t, m, gate)
	opts.Replicas = 1
	p = NewPredictor(m, opts)
	t.Cleanup(p.Close)
	t.Cleanup(release) // runs before Close, which waits for the holder
	done := make(chan error, 1)
	go func() {
		_, err := p.ProbsIntoCtx(context.Background(), gate, nil)
		done <- err
	}()
	<-entered
	return p, seen, done, release
}

// waiter starts a single-statement call that will have to wait for the
// parked replica and delivers its error.
func waiter(ctx context.Context, p *Predictor) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := p.ProbsIntoCtx(ctx, testStatements(1)[0], nil)
		done <- err
	}()
	return done
}

// result receives a call's error, failing the test instead of hanging
// it when the call never returns.
func result(t *testing.T, call <-chan error) error {
	t.Helper()
	select {
	case err := <-call:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("call did not return")
		return nil
	}
}

// TestRejectsAtQueueBound checks the AdmitReject policy: with the
// replica on loan and QueueSize calls waiting, the next call is refused
// with ErrQueueFull and counted, and the one that was admitted is
// served.
func TestRejectsAtQueueBound(t *testing.T) {
	p, _, holder, release := parkedPredictor(t, Options{QueueSize: 1, Admission: AdmitReject})
	ctx := context.Background()
	admitted := waiter(ctx, p)
	waitQueueDepth(t, p, 1)
	if _, err := p.ProbsIntoCtx(ctx, "SELECT 2", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("call past the bound: err = %v, want ErrQueueFull", err)
	}
	if s := p.Stats(); s.Rejected != 1 || s.QueueDepth != 1 {
		t.Fatalf("Rejected = %d QueueDepth = %d, want 1 and 1", s.Rejected, s.QueueDepth)
	}
	release()
	if err := result(t, holder); err != nil {
		t.Fatal(err)
	}
	if err := result(t, admitted); err != nil {
		t.Fatalf("admitted waiter: %v", err)
	}
}

// TestBlockedCallerHonorsDeadline checks the AdmitBlock policy: a call
// past the bound waits with the others instead of being refused, and
// an expiring context gets it context.DeadlineExceeded rather than a
// wait without end.
func TestBlockedCallerHonorsDeadline(t *testing.T) {
	p, _, _, release := parkedPredictor(t, Options{QueueSize: 1, Admission: AdmitBlock})
	first := waiter(context.Background(), p)
	waitQueueDepth(t, p, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := p.ProbsIntoCtx(ctx, "SELECT 2", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked call err = %v, want DeadlineExceeded", err)
	}
	if got := p.Stats().Rejected; got != 0 {
		t.Fatalf("Stats.Rejected = %d under AdmitBlock, want 0", got)
	}
	release()
	if err := result(t, first); err != nil {
		t.Fatalf("first waiter: %v", err)
	}
}

// TestCanceledWaiterUncomputed checks that a call whose deadline
// passes while it waits for a replica returns
// context.DeadlineExceeded and is counted, that the model never sees
// its statement, and that its dst is never written — it borrowed
// nothing, so nothing can run on its behalf after it has returned.
func TestCanceledWaiterUncomputed(t *testing.T) {
	p, seen, holder, release := parkedPredictor(t, Options{QueueSize: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	dst := []float64{-1, -1, -1, -1, -1, -1, -1, -1}
	if got, err := p.ProbsIntoCtx(ctx, testStatements(1)[0], dst[:0]); !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Fatalf("expired waiter: probs = %v err = %v, want nil and DeadlineExceeded", got, err)
	}
	if s := p.Stats(); s.Canceled != 1 || s.QueueDepth != 0 {
		t.Fatalf("Canceled = %d QueueDepth = %d, want 1 and 0", s.Canceled, s.QueueDepth)
	}
	release()
	if err := result(t, holder); err != nil {
		t.Fatal(err)
	}
	// A healthy call afterwards: had anything of the expired one stayed
	// behind, it would run now.
	if _, err := p.ProbsIntoCtx(context.Background(), "SELECT 2", nil); err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != 2 {
		t.Fatalf("model saw %d statements, want 2 (the gate and the healthy call)", got)
	}
	for i, v := range dst {
		if v != -1 {
			t.Fatalf("dst[%d] = %v: the expired call's buffer was written", i, v)
		}
	}
}

// TestCanceledWaiterFreesSlot is the regression test for a leak the
// request queue had: an expired waiter's request stayed queued, still
// holding its admission slot, until a worker reached it, so under
// AdmitReject the next caller was refused although nobody was waiting.
// A waiter that gives up frees its place as it returns: the next
// caller is admitted, waits, and is served.
func TestCanceledWaiterFreesSlot(t *testing.T) {
	p, _, holder, release := parkedPredictor(t, Options{QueueSize: 1, Admission: AdmitReject})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := result(t, waiter(ctx, p)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient waiter err = %v, want DeadlineExceeded", err)
	}
	next := waiter(context.Background(), p)
	select {
	case err := <-next:
		t.Fatalf("the next caller returned (err = %v) while the replica was on loan, want it admitted and waiting", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := result(t, holder); err != nil {
		t.Fatal(err)
	}
	if err := result(t, next); err != nil {
		t.Fatalf("the next caller, once a replica was free: %v", err)
	}
	if s := p.Stats(); s.Rejected != 0 || s.Canceled != 1 || s.Completed != 2 {
		t.Fatalf("Rejected = %d Canceled = %d Completed = %d, want 0, 1, 2", s.Rejected, s.Canceled, s.Completed)
	}
}

// TestCloseRefusesWaiters checks Close against calls in both states:
// the call holding the replica finishes normally, the calls waiting
// for it get ErrClosed without being computed, and Close — each of
// several concurrent ones — returns only once the holder has put the
// replica back.
func TestCloseRefusesWaiters(t *testing.T) {
	p, seen, holder, release := parkedPredictor(t, Options{})
	var waiters [3]<-chan error
	for i := range waiters {
		waiters[i] = waiter(context.Background(), p)
	}
	waitQueueDepth(t, p, len(waiters))
	closed := make(chan struct{}, 2)
	for range cap(closed) {
		go func() {
			p.Close()
			closed <- struct{}{}
		}()
	}
	for i, w := range waiters {
		if err := result(t, w); !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter %d err = %v, want ErrClosed", i, err)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a call still held the replica")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := result(t, holder); err != nil {
		t.Fatalf("holder: %v", err)
	}
	for range cap(closed) {
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return after the holder finished")
		}
	}
	if s := p.Stats(); s.Completed != 1 || s.QueueDepth != 0 || seen.Load() != 1 {
		t.Fatalf("Completed = %d QueueDepth = %d seen = %d, want 1, 0, 1", s.Completed, s.QueueDepth, seen.Load())
	}
}

// TestIdlePredictorOwnsNoGoroutine checks that a Predictor runs
// nothing of its own: the process has no more goroutines after
// NewPredictor, between calls, and after Close than before. (No more,
// not as many: a goroutine an earlier test left winding down may exit
// meanwhile.)
func TestIdlePredictorOwnsNoGoroutine(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	before := runtime.NumGoroutine()
	p := NewPredictor(m, Options{Replicas: 4})
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after NewPredictor, %d before", got, before)
	}
	if _, err := p.ProbsIntoCtx(context.Background(), "SELECT 1", nil); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines between calls, %d before", got, before)
	}
	p.Close()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before", got, before)
	}
}

// TestPreExpiredContext checks the pre-enqueue fast path: an already
// expired context never enters the queue.
func TestPreExpiredContext(t *testing.T) {
	m := trainedModels(t)["mfreq"]
	p := NewPredictor(m, Options{Replicas: 1})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.PredictLogCtx(ctx, "SELECT 1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, err := p.ProbsIntoCtx(ctx, "SELECT 1", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("probs err = %v, want Canceled", err)
	}
	if _, err := p.ProbsBatchCtx(ctx, []string{"SELECT 1"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want Canceled", err)
	}
}

// TestCtxMethodsMatchModel checks that the prediction methods, given a
// generous deadline, return results bit-identical to direct sequential
// Model calls.
func TestCtxMethodsMatchModel(t *testing.T) {
	models := trainedModels(t)
	stmts := testStatements(30)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cls := models["clstm"]
	p := NewPredictor(cls, Options{Replicas: 2})
	for _, s := range stmts {
		wantProbs := cls.Probs(s)
		got, err := p.ProbsIntoCtx(ctx, s, nil)
		if err != nil {
			t.Fatalf("ProbsIntoCtx: %v", err)
		}
		for c := range wantProbs {
			if got[c] != wantProbs[c] {
				t.Fatal("ProbsIntoCtx differs from sequential")
			}
		}
		c, err := pooledClass(ctx, p, s)
		if err != nil || c != cls.PredictClass(s) {
			t.Fatalf("pooled class = %d, %v", c, err)
		}
	}
	batch, err := p.ProbsBatchCtx(ctx, stmts)
	if err != nil {
		t.Fatalf("ProbsBatchCtx: %v", err)
	}
	for i, s := range stmts {
		want := cls.Probs(s)
		for c := range want {
			if batch[i][c] != want[c] {
				t.Fatalf("ProbsBatchCtx[%d] differs", i)
			}
		}
	}
	p.Close()

	reg := models["ccnn-reg"]
	pr := NewPredictor(reg, Options{Replicas: 2})
	defer pr.Close()
	for _, s := range stmts[:5] {
		v, err := pr.PredictLogCtx(ctx, s)
		if err != nil || v != reg.PredictLog(s) {
			t.Fatalf("PredictLogCtx = %v, %v", v, err)
		}
		if raw := metrics.InverseLogTransform(v, pr.Model().LogMin); raw != reg.PredictRaw(s) {
			t.Fatalf("raw-unit prediction = %v, want %v", raw, reg.PredictRaw(s))
		}
	}
	logs, err := pr.PredictLogBatchCtx(ctx, stmts)
	if err != nil {
		t.Fatalf("PredictLogBatchCtx: %v", err)
	}
	for i, s := range stmts {
		if logs[i] != reg.PredictLog(s) {
			t.Fatalf("PredictLogBatchCtx[%d] differs", i)
		}
	}
}

// TestCtxMethodsReturnErrClosed checks that every prediction method
// returns ErrClosed after Close.
func TestCtxMethodsReturnErrClosed(t *testing.T) {
	m := trainedModels(t)["mfreq"]
	p := NewPredictor(m, Options{Replicas: 1})
	p.Close()
	ctx := context.Background()
	if _, err := p.PredictLogBatchCtx(ctx, []string{"a", "b"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("PredictLogBatchCtx err = %v, want ErrClosed", err)
	}
	if _, err := p.ProbsIntoCtx(ctx, "SELECT 1", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("ProbsIntoCtx err = %v, want ErrClosed", err)
	}
	if _, err := p.PredictLogCtx(ctx, "SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("PredictLogCtx err = %v, want ErrClosed", err)
	}
	if _, err := p.ProbsBatchCtx(ctx, []string{"a", "b"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ProbsBatchCtx err = %v, want ErrClosed", err)
	}
}

// TestCloseConcurrencySafe hammers Close from several goroutines while
// clients race ctx-aware predictions: every call must either succeed
// or return ErrClosed, with no panics, deadlocks, or races.
func TestCloseConcurrencySafe(t *testing.T) {
	m := trainedModels(t)["mfreq"]
	for iter := 0; iter < 5; iter++ {
		p := NewPredictor(m, Options{Replicas: 2, QueueSize: 4})
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					if _, err := p.ProbsIntoCtx(ctx, "SELECT 1", nil); err != nil {
						if !errors.Is(err, ErrClosed) {
							errs <- err
						}
						return
					}
				}
			}()
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				p.Close()
			}()
		}
		close(start)
		wg.Wait()
		p.Close()
		select {
		case err := <-errs:
			t.Fatalf("unexpected prediction error: %v", err)
		default:
		}
	}
}

// TestCtxPredictAllocFree proves the warm in-deadline path performs
// zero allocations for the neural models, under a deadline-carrying
// context and the AdmitReject policy.
func TestCtxPredictAllocFree(t *testing.T) {
	models := trainedModels(t)
	stmt := testStatements(1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, name := range []string{"ccnn", "clstm"} {
		p := NewPredictor(models[name], Options{Replicas: 1, Admission: AdmitReject, QueueSize: 64})
		dst := make([]float64, 0, 8)
		for i := 0; i < 8; i++ { // warm the request pool and scratch
			var err error
			if dst, err = p.ProbsIntoCtx(ctx, stmt, dst); err != nil {
				t.Fatal(err)
			}
			if _, err := p.PredictLogCtx(ctx, stmt); err != nil {
				t.Fatal(err)
			}
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

// TestDeadlineUnderLoad drives a slow model with a queue of impatient
// clients: expired requests must return context.DeadlineExceeded (and
// be counted) while unexpired ones complete normally — no panics, no
// mixed results.
func TestDeadlineUnderLoad(t *testing.T) {
	m := trainedModels(t)["clstm"]
	p := NewPredictor(m, Options{Replicas: 1, MaxBatch: 1, QueueSize: 128})
	defer p.Close()
	stmt := testStatements(1)[0]
	want := m.PredictClass(stmt)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var completed, expired int
	var bad error
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
			defer cancel()
			cls, err := pooledClass(ctx, p, stmt)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
				if cls != want {
					bad = errors.New("completed request returned wrong class")
				}
			case errors.Is(err, context.DeadlineExceeded):
				expired++
			default:
				bad = err
			}
		}()
	}
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
	if completed+expired != 32 {
		t.Fatalf("completed=%d expired=%d, want 32 total", completed, expired)
	}
	// Canceled counts only requests abandoned after entering the queue;
	// contexts that expired before enqueue are not in it.
	if got := p.Stats().Canceled; got > uint64(expired) {
		t.Fatalf("Stats.Canceled = %d > expired calls %d", got, expired)
	}
}
