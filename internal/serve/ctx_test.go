package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// workerlessPredictor builds a Predictor whose queue no worker drains,
// so enqueue/await behavior (admission, cancellation while queued) can
// be tested deterministically. Only the enqueue-side state is set up.
func workerlessPredictor(opts Options) *Predictor {
	opts = opts.withDefaults()
	p := &Predictor{
		opts:  opts,
		queue: make(chan *request, opts.QueueSize),
		start: time.Now(),
	}
	p.stats.lat = make([]latRing, 1)
	p.reqPool.New = newRequest
	return p
}

// TestEnqueueRejectsWhenQueueFull checks the AdmitReject policy
// deterministically: with a capacity-1 queue and no workers draining,
// the second request must fail with ErrQueueFull and be counted.
func TestEnqueueRejectsWhenQueueFull(t *testing.T) {
	p := workerlessPredictor(Options{Replicas: 1, QueueSize: 1, Admission: AdmitReject})
	ctx := context.Background()
	if _, err := p.enqueue(ctx, probsKind, []string{"SELECT 1"}, [][]float64{nil}); err != nil {
		t.Fatalf("first enqueue: %v", err)
	}
	if _, err := p.enqueue(ctx, probsKind, []string{"SELECT 2"}, [][]float64{nil}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second enqueue err = %v, want ErrQueueFull", err)
	}
	if got := p.Stats().Rejected; got != 1 {
		t.Fatalf("Stats.Rejected = %d, want 1", got)
	}
}

// TestEnqueueBlockHonorsDeadline checks the AdmitBlock policy: a full
// queue plus an expiring context must yield context.DeadlineExceeded
// rather than blocking forever.
func TestEnqueueBlockHonorsDeadline(t *testing.T) {
	p := workerlessPredictor(Options{Replicas: 1, QueueSize: 1, Admission: AdmitBlock})
	if _, err := p.enqueue(context.Background(), probsKind, []string{"SELECT 1"}, [][]float64{nil}); err != nil {
		t.Fatalf("first enqueue: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := p.enqueue(ctx, probsKind, []string{"SELECT 2"}, [][]float64{nil}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked enqueue err = %v, want DeadlineExceeded", err)
	}
}

// TestAwaitDeadlineWhileQueued checks that a request sitting in the
// queue past its deadline returns context.DeadlineExceeded and is
// marked abandoned, so a worker draining it later skips it instead of
// writing into the caller's buffer.
func TestAwaitDeadlineWhileQueued(t *testing.T) {
	p := workerlessPredictor(Options{Replicas: 1, QueueSize: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	r, err := p.enqueue(ctx, probsKind, []string{"SELECT 1"}, [][]float64{nil})
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := p.await(ctx, r); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("await err = %v, want DeadlineExceeded", err)
	}
	if got := r.state.Load(); got != reqAbandoned {
		t.Fatalf("request state = %d, want abandoned", got)
	}
	// A worker draining the queue later must lose the ownership CAS.
	if r.state.CompareAndSwap(reqQueued, reqRunning) {
		t.Fatal("worker pickup CAS succeeded on an abandoned request")
	}
	if got := p.Stats().Canceled; got != 1 {
		t.Fatalf("Stats.Canceled = %d, want 1", got)
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
