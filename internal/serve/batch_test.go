package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// requestsServed is how many requests the replicas have run: each
// request counts exactly once, whatever its width, in the latency
// histogram.
func requestsServed(p *Predictor) (n uint64) {
	for b := range p.stats.lat {
		n += p.stats.lat[b].Load()
	}
	return n
}

// gateModel installs a predict hook on m that counts every statement
// it sees and parks the call that runs the gate statement — with the
// replica it borrowed — until the returned release func is called;
// entered is signaled when a call reaches the gate. Install it before
// NewPredictor: replicas inherit the hook when they are built.
func gateModel(t *testing.T, m *core.Model, gate string) (seen *atomic.Int64, entered chan struct{}, release func()) {
	seen = new(atomic.Int64)
	entered = make(chan struct{}, 1)
	open := make(chan struct{})
	m.SetPredictHook(func(stmt string) {
		seen.Add(1)
		if stmt == gate {
			entered <- struct{}{}
			<-open
		}
	})
	t.Cleanup(func() { m.SetPredictHook(nil) })
	return seen, entered, sync.OnceFunc(func() { close(open) })
}

// waitQueueDepth polls until n requests are waiting for a replica.
func waitQueueDepth(t *testing.T, p *Predictor, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); p.Stats().QueueDepth != n; {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth = %d, want %d", p.Stats().QueueDepth, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFusedBatchBitIdentical checks, for every model kind, that the
// rows of a batch — statements of ragged lengths travelling as one
// request and run as one batched forward — carry exactly the bits the
// direct sequential model produces, in input order, including when
// the batch is longer than MaxBatch and is cut into several requests.
func TestFusedBatchBitIdentical(t *testing.T) {
	stmts := append([]string{"SELECT 1", ""}, raggedStatements(46)...)
	ctx := context.Background()
	for name, m := range trainedModels(t) {
		p := NewPredictor(m, Options{Replicas: 2, MaxBatch: 16})
		if m.Task.IsClassification() {
			probs, err := p.ProbsBatchCtx(ctx, stmts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, s := range stmts {
				want := m.Probs(s)
				if len(probs[i]) != len(want) {
					t.Fatalf("%s: row %d has %d classes, want %d", name, i, len(probs[i]), len(want))
				}
				for c := range want {
					if math.Float64bits(probs[i][c]) != math.Float64bits(want[c]) {
						t.Fatalf("%s: batch probs[%d][%d] = %v, want %v", name, i, c, probs[i][c], want[c])
					}
				}
			}
		} else {
			logs, err := p.PredictLogBatchCtx(ctx, stmts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, s := range stmts {
				if want := m.PredictLog(s); math.Float64bits(logs[i]) != math.Float64bits(want) {
					t.Fatalf("%s: batch log[%d] = %v, want %v", name, i, logs[i], want)
				}
			}
		}
		s := p.Stats()
		p.Close()
		if s.Completed != uint64(len(stmts)) || s.EffectiveBatch != 16 {
			t.Fatalf("%s: Completed = %d EffectiveBatch = %v, want %d and 16", name, s.Completed, s.EffectiveBatch, len(stmts))
		}
	}
}

// TestEffectiveBatchIsCallerWidth checks that EffectiveBatch reports
// the callers' own batch sizes: 16 after 16-statement batches, 1 after
// single-statement calls, and one request per call either way.
func TestEffectiveBatchIsCallerWidth(t *testing.T) {
	m := trainedModels(t)["wcnn"]
	stmts := testStatements(16)
	ctx := context.Background()
	for _, width := range []int{16, 1} {
		p := NewPredictor(m, Options{Replicas: 2})
		const calls = 5
		for i := 0; i < calls; i++ {
			if _, err := p.ProbsBatchCtx(ctx, stmts[:width]); err != nil {
				t.Fatal(err)
			}
		}
		s := p.Stats()
		p.Close()
		if s.EffectiveBatch != float64(width) || s.Completed != uint64(calls*width) {
			t.Fatalf("width %d: EffectiveBatch = %v Completed = %d", width, s.EffectiveBatch, s.Completed)
		}
		if got := requestsServed(p); got != calls {
			t.Fatalf("width %d: %d calls became %d requests", width, calls, got)
		}
	}
}

// TestBatchAdmittedOrRejectedWhole checks the admission unit under
// AdmitReject: a batch takes one queue slot, so with one slot free it
// is admitted and served whole, and offered to a full queue it is
// refused whole — ErrQueueFull, nothing computed, Completed unchanged.
func TestBatchAdmittedOrRejectedWhole(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	stmts := testStatements(9)
	gate, batch := "GATE :: "+stmts[0], stmts[1:]
	want := make([][]float64, len(batch))
	for i, s := range batch {
		want[i] = m.Probs(s)
	}
	seen, entered, release := gateModel(t, m, gate)
	p := NewPredictor(m, Options{Replicas: 1, QueueSize: 2, Admission: AdmitReject})
	defer p.Close()
	defer release() // before Close, which waits for the parked worker
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	single := func(stmt string) {
		defer wg.Done()
		if _, err := p.ProbsIntoCtx(ctx, stmt, nil); err != nil {
			errs <- "single: " + err.Error()
		}
	}
	wg.Add(1)
	go single(gate)
	<-entered // the only worker is parked inside the gate request
	wg.Add(1)
	go single(stmts[0])
	waitQueueDepth(t, p, 1)

	// One slot left: the 8-statement batch fits whole.
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err := p.ProbsBatchCtx(ctx, batch)
		if err != nil {
			errs <- "batch offered one free slot: " + err.Error()
			return
		}
		for i := range want {
			for c := range want[i] {
				if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
					errs <- "admitted batch differs from the direct model"
					return
				}
			}
		}
	}()
	waitQueueDepth(t, p, 2)

	// Queue full: the next batch is refused whole and costs nothing.
	if _, err := p.ProbsBatchCtx(ctx, batch); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch offered to a full queue: err = %v, want ErrQueueFull", err)
	}
	if s := p.Stats(); s.Rejected != 1 || s.Completed != 0 || s.QueueDepth != 2 {
		t.Fatalf("after the refusal: Rejected = %d Completed = %d QueueDepth = %d, want 1, 0, 2", s.Rejected, s.Completed, s.QueueDepth)
	}
	if got := seen.Load(); got != 1 {
		t.Fatalf("model saw %d statements while the worker was parked, want only the gate", got)
	}

	release()
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if s := p.Stats(); s.Completed != uint64(2+len(batch)) || s.Rejected != 1 {
		t.Fatalf("Completed = %d Rejected = %d, want %d and 1", s.Completed, s.Rejected, 2+len(batch))
	}
}

// TestLongBatchOnIdlePoolAdmitted checks that a batch cut into more
// requests than the admission queue holds is still served on an idle
// pool under AdmitReject: its requests run on at most Replicas
// goroutines, so the call never has more of them waiting than it can
// run, and none is refused. The predict hook slows every statement so
// the requests would overlap if they were all started at once.
func TestLongBatchOnIdlePoolAdmitted(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	m.SetPredictHook(func(string) { time.Sleep(100 * time.Microsecond) })
	defer m.SetPredictHook(nil)
	p := NewPredictor(m, Options{Replicas: 1, Admission: AdmitReject})
	defer p.Close()
	base := testStatements(64)
	stmts := make([]string, (p.opts.QueueSize+3)*p.opts.MaxBatch) // 67 requests at the defaults
	for i := range stmts {
		stmts[i] = base[i%len(base)]
	}
	rows, err := p.ProbsBatchCtx(context.Background(), stmts)
	if err != nil {
		t.Fatalf("batch of %d statements on an idle pool: %v", len(stmts), err)
	}
	if len(rows) != len(stmts) {
		t.Fatalf("got %d rows, want %d", len(rows), len(stmts))
	}
	if s := p.Stats(); s.Rejected != 0 || s.Completed != uint64(len(stmts)) {
		t.Fatalf("Rejected = %d Completed = %d, want 0 and %d", s.Rejected, s.Completed, len(stmts))
	}
}

// TestLongBatchFirstErrorInInputOrder checks a long batch's error
// contract with helpers serving its requests side by side: the call
// returns the error of the earliest failing request, and only after
// every request has run — both poisoned statements count as panics.
func TestLongBatchFirstErrorInInputOrder(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	stmts := testStatements(8)
	stmts[3], stmts[6] = "POISON-A", "POISON-B" // requests 1 and 3 of 4
	m.SetPredictHook(func(stmt string) {
		if strings.HasPrefix(stmt, "POISON") {
			panic(stmt)
		}
	})
	defer m.SetPredictHook(nil)
	p := NewPredictor(m, Options{Replicas: 2, MaxBatch: 2})
	defer p.Close()
	_, err := p.ProbsBatchCtx(context.Background(), stmts)
	if !errors.Is(err, ErrPanicked) || !strings.Contains(err.Error(), "POISON-A") {
		t.Fatalf("err = %v, want ErrPanicked from POISON-A", err)
	}
	if got := p.Stats().Panics; got != 2 {
		t.Fatalf("Panics = %d, want 2: every request runs before the call returns", got)
	}
}

// TestQueuedBatchCanceledUncomputed checks that a batch whose context
// expires while it waits for a replica returns without the model ever
// seeing its statements, and leaves nothing behind: QueueDepth is 0
// the moment the only waiter has gone (nothing stays queued on a
// departed caller's behalf, so its admission slot is free at once).
func TestQueuedBatchCanceledUncomputed(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	stmts := testStatements(9)
	gate := "GATE :: " + stmts[0]
	seen, entered, release := gateModel(t, m, gate)
	p := NewPredictor(m, Options{Replicas: 1})
	defer p.Close()
	defer release() // before Close, which waits for the parked worker

	done := make(chan error, 1)
	go func() {
		_, err := p.ProbsIntoCtx(context.Background(), gate, nil)
		done <- err
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := p.ProbsBatchCtx(ctx, stmts[1:]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued batch err = %v, want DeadlineExceeded", err)
	}
	if s := p.Stats(); s.Canceled != 1 || s.QueueDepth != 0 {
		t.Fatalf("Canceled = %d QueueDepth = %d, want 1 and 0", s.Canceled, s.QueueDepth)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// A healthy call after the expired batch: nothing of it runs now.
	if _, err := p.ProbsIntoCtx(context.Background(), stmts[0], nil); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Completed != 2 || s.QueueDepth != 0 {
		t.Fatalf("Completed = %d QueueDepth = %d, want 2 and 0", s.Completed, s.QueueDepth)
	}
	if got := seen.Load(); got != 2 {
		t.Fatalf("model saw %d statements, want 2: the abandoned batch must not be computed", got)
	}
}

// TestFusedMixedKindsConcurrent hammers one pool with both request
// kinds, as single statements and as batches, at once; every result
// must still match the sequential model exactly. Under -race this
// also exercises the request hand-off's synchronization.
func TestFusedMixedKindsConcurrent(t *testing.T) {
	m := trainedModels(t)["wlstm"]
	stmts := testStatements(24)
	wantProbs := make([][]float64, len(stmts))
	wantCls := make([]int, len(stmts))
	for i, s := range stmts {
		wantProbs[i] = m.Probs(s)
		wantCls[i] = m.PredictClass(s)
	}
	p := NewPredictor(m, Options{Replicas: 2, MaxBatch: 16, QueueSize: 128})
	defer p.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		kind := g % 4
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 0, 8)
			for round := 0; round < 5; round++ {
				if kind == 3 {
					rows, err := p.ProbsBatchCtx(ctx, stmts)
					if err != nil {
						errs <- err.Error()
						return
					}
					for i := range rows {
						for c := range rows[i] {
							if rows[i][c] != wantProbs[i][c] {
								errs <- "batch probs mismatch under mixed load"
								return
							}
						}
					}
					continue
				}
				for i, s := range stmts {
					switch kind {
					case 0:
						var err error
						if dst, err = p.ProbsIntoCtx(ctx, s, dst); err != nil {
							errs <- err.Error()
							return
						}
						for c := range dst {
							if dst[c] != wantProbs[i][c] {
								errs <- "probs mismatch under mixed load"
								return
							}
						}
					case 1:
						if cls, err := pooledClass(ctx, p, s); err != nil || cls != wantCls[i] {
							errs <- "class mismatch under mixed load"
							return
						}
					default:
						// Classification model: the log head is absent and
						// must read zero.
						if v, err := p.PredictLogCtx(ctx, s); err != nil || v != 0 {
							errs <- "log head should be zero for classification"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestFusedPanicFallback checks fault isolation inside a batch: one
// poisoned statement fails exactly its own call with ErrPanicked and
// counts exactly one panic (the worker re-runs the request's
// statements one by one to find it), the replica is rebuilt at
// panicLimit strikes, and concurrent callers on the same pool keep
// getting correct results.
func TestFusedPanicFallback(t *testing.T) {
	m := trainedModels(t)["clstm"]
	stmts := testStatements(12)
	poison := "POISON :: " + stmts[0]
	want := make([][]float64, len(stmts))
	for i, s := range stmts {
		want[i] = m.Probs(s)
	}
	m.SetPredictHook(func(stmt string) {
		if stmt == poison {
			panic("poisoned statement")
		}
	})
	defer m.SetPredictHook(nil)
	p := NewPredictor(m, Options{Replicas: 1})
	defer p.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)
	var healthy atomic.Uint64 // statements served to the bystanders
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var rows [][]float64
				var err error
				if g == 0 {
					rows = make([][]float64, len(stmts))
					for i, s := range stmts {
						if rows[i], err = p.ProbsIntoCtx(ctx, s, nil); err != nil {
							break
						}
					}
				} else {
					rows, err = p.ProbsBatchCtx(ctx, stmts)
				}
				if err != nil {
					errs <- "healthy caller failed alongside poison: " + err.Error()
					return
				}
				for i := range want {
					for c := range want[i] {
						if rows[i][c] != want[i][c] {
							errs <- "healthy result corrupted by a neighbour's panic"
							return
						}
					}
				}
				healthy.Add(uint64(len(stmts)))
			}
		}()
	}

	poisoned := append(append([]string{}, stmts[:5]...), poison)
	poisoned = append(poisoned, stmts[5:8]...)
	for round, wantRebuilds := range []uint64{0, 0, 1, 1, 1, 2} {
		rows, err := p.ProbsBatchCtx(ctx, poisoned)
		if !errors.Is(err, ErrPanicked) || rows != nil {
			t.Fatalf("poisoned batch: rows = %v err = %v, want nil and ErrPanicked", rows, err)
		}
		if s := p.Stats(); s.Panics != uint64(round+1) || s.Rebuilds != wantRebuilds {
			t.Fatalf("round %d: Panics = %d Rebuilds = %d, want %d and %d", round, s.Panics, s.Rebuilds, round+1, wantRebuilds)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	// The healthy statements beside the poison were served (their rows
	// discarded with the failed call); the poison itself never counts.
	if s := p.Stats(); s.Completed != healthy.Load()+6*8 {
		t.Fatalf("Completed = %d, want %d", s.Completed, healthy.Load()+6*8)
	}
}

// TestFusedBatchAllocFree proves the warm batch path is 0 allocs/op
// at a fixed width: the replica's own arrays and the capacity-reusing
// rows end to end. White-box: the one-request function directly, so
// the rows written one round are the next round's buffers.
func TestFusedBatchAllocFree(t *testing.T) {
	m := trainedModels(t)["clstm"]
	stmts := testStatements(8)
	p := NewPredictor(m, Options{Replicas: 1})
	defer p.Close()
	ctx := context.Background()
	dsts := make([][]float64, len(stmts))
	round := func() {
		if err := p.serve(ctx, probsKind, stmts, dsts, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm the replica's arrays and scratch, and the rows
		round()
	}
	if raceDetectorEnabled {
		round() // still exercise the path for the race build
	} else if allocs := testing.AllocsPerRun(30, round); allocs != 0 {
		t.Errorf("batch allocs per request = %v, want 0", allocs)
	}
	if s := p.Stats(); s.EffectiveBatch != float64(len(stmts)) {
		t.Fatalf("EffectiveBatch = %v, want %d", s.EffectiveBatch, len(stmts))
	}
}

// TestProbsBatchCtxRowsShareOneSlab is TestFusedBatchAllocFree's
// sibling for the call that returns its rows: a warm 8-statement
// ProbsBatchCtx allocates the row slice and one slab the rows are
// carved from — not one array per row — the worker fills the rows in
// place, and each row is capped at its own end.
func TestProbsBatchCtxRowsShareOneSlab(t *testing.T) {
	m := trainedModels(t)["clstm"]
	stmts := testStatements(8)
	p := NewPredictor(m, Options{Replicas: 1})
	defer p.Close()
	ctx := context.Background()
	var rows [][]float64
	round := func() {
		var err error
		if rows, err = p.ProbsBatchCtx(ctx, stmts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm request pool and replica scratch
		round()
	}
	classes := m.Task.NumClasses()
	for i, row := range rows {
		if len(row) != classes || cap(row) != classes {
			t.Fatalf("row %d: len %d cap %d, want %d and %d", i, len(row), cap(row), classes, classes)
		}
		want := m.Probs(stmts[i])
		for k, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[k]) {
				t.Fatalf("row %d: %v, want %v", i, row, want)
			}
		}
	}
	if !raceDetectorEnabled {
		if allocs := testing.AllocsPerRun(30, round); allocs != 2 {
			t.Errorf("ProbsBatchCtx of %d statements: %v allocs, want 2 (rows, slab)", len(stmts), allocs)
		}
	}
}
