package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestFusedBatchBitIdentical forces wide fused batches (one worker, a
// generous window, a burst of requests) and checks the results are
// bit-identical to direct sequential model calls — the fused n-row
// forward must be indistinguishable from the scalar path — and that
// Stats actually reports fused widths > 1.
func TestFusedBatchBitIdentical(t *testing.T) {
	models := trainedModels(t)
	stmts := testStatements(48)

	cls := models["clstm"]
	wantProbs := make([][]float64, len(stmts))
	for i, s := range stmts {
		wantProbs[i] = cls.Probs(s)
	}
	p := NewPredictor(cls, Options{Replicas: 1, BatchWindow: 5 * time.Millisecond, MaxBatch: 8, QueueSize: 64})
	probs, err := p.ProbsBatchCtx(context.Background(), stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		for c := range wantProbs[i] {
			if probs[i][c] != wantProbs[i][c] {
				t.Fatalf("fused probs[%d][%d] = %v, want %v", i, c, probs[i][c], wantProbs[i][c])
			}
		}
	}
	s := p.Stats()
	p.Close()
	if s.EffectiveBatch <= 1 {
		t.Fatalf("EffectiveBatch = %v: burst through one windowed worker should fuse", s.EffectiveBatch)
	}
	maxW := 0
	var total uint64
	for _, w := range s.Widths {
		if w.Width > maxW {
			maxW = w.Width
		}
		if w.Count > 0 && (w.P50 <= 0 || w.P99 < w.P50) {
			t.Fatalf("width %d percentiles p50=%v p99=%v", w.Width, w.P50, w.P99)
		}
		total += w.Count
	}
	if maxW < 2 {
		t.Fatalf("max fused width = %d, want >= 2", maxW)
	}
	if total != s.Completed {
		t.Fatalf("width histogram total %d != Completed %d", total, s.Completed)
	}

	reg := models["ccnn-reg"]
	wantLog := make([]float64, len(stmts))
	for i, s := range stmts {
		wantLog[i] = reg.PredictLog(s)
	}
	pr := NewPredictor(reg, Options{Replicas: 1, BatchWindow: 5 * time.Millisecond, MaxBatch: 8, QueueSize: 64})
	defer pr.Close()
	logs, err := pr.PredictLogBatchCtx(context.Background(), stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if logs[i] != wantLog[i] {
			t.Fatalf("fused log[%d] = %v, want %v", i, logs[i], wantLog[i])
		}
	}
	if s := pr.Stats(); s.EffectiveBatch <= 1 {
		t.Fatalf("regression EffectiveBatch = %v, want > 1", s.EffectiveBatch)
	}
}

// TestFusedMixedKindsConcurrent hammers one windowed worker with both
// request kinds at once, so gathered batches contain mixed-kind
// groups; every result must still match the sequential model exactly.
// Under -race this also exercises the fused path's synchronization.
func TestFusedMixedKindsConcurrent(t *testing.T) {
	m := trainedModels(t)["wlstm"]
	stmts := testStatements(24)
	wantProbs := make([][]float64, len(stmts))
	wantCls := make([]int, len(stmts))
	for i, s := range stmts {
		wantProbs[i] = m.Probs(s)
		wantCls[i] = m.PredictClass(s)
	}
	p := NewPredictor(m, Options{Replicas: 2, BatchWindow: 2 * time.Millisecond, MaxBatch: 16, QueueSize: 128})
	defer p.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 6; g++ {
		kind := g % 3
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 0, 8)
			for round := 0; round < 5; round++ {
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
								errs <- "probs mismatch under mixed fused load"
								return
							}
						}
					case 1:
						if cls, err := pooledClass(ctx, p, s); err != nil || cls != wantCls[i] {
							errs <- "class mismatch under mixed fused load"
							return
						}
					default:
						// Classification model: the log head is absent and
						// must read zero, fused or not.
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

// TestFusedPanicFallback checks fault isolation through the fused
// path: a poisoned statement inside a fused group fails ONLY its own
// request (the group re-runs per-request), healthy requests still
// succeed with correct results, and Panics counts exactly the poisoned
// requests.
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
	p := NewPredictor(m, Options{Replicas: 1, BatchWindow: 10 * time.Millisecond, MaxBatch: 16, QueueSize: 64, PanicLimit: 100})
	defer p.Close()

	const rounds = 3
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, len(stmts)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.ProbsIntoCtx(context.Background(), poison, nil); !errors.Is(err, ErrPanicked) {
				errs <- "poisoned request should fail with ErrPanicked"
			}
		}()
		for i, s := range stmts {
			wg.Add(1)
			go func(i int, s string) {
				defer wg.Done()
				out, err := p.ProbsIntoCtx(context.Background(), s, nil)
				if err != nil {
					errs <- "healthy request failed alongside poison: " + err.Error()
					return
				}
				for c := range out {
					if out[c] != want[i][c] {
						errs <- "healthy result corrupted by fused fallback"
						return
					}
				}
			}(i, s)
		}
		wg.Wait()
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
	}
	s := p.Stats()
	if s.Panics != rounds {
		t.Fatalf("Panics = %d, want exactly %d (one per poisoned request)", s.Panics, rounds)
	}
	if wantDone := uint64(rounds * len(stmts)); s.Completed != wantDone {
		t.Fatalf("Completed = %d, want %d", s.Completed, wantDone)
	}
}

// TestFusedBatchAllocFree proves the warm fused serving path is
// 0 allocs/op at a fixed batch width: pooled requests, preallocated
// worker scratch, and capacity-reusing batch buffers end to end.
// White-box: enqueue bursts directly so every round flows through the
// same fused machinery.
func TestFusedBatchAllocFree(t *testing.T) {
	m := trainedModels(t)["clstm"]
	stmts := testStatements(8)
	p := NewPredictor(m, Options{Replicas: 1, BatchWindow: time.Millisecond, MaxBatch: 8, QueueSize: 64})
	defer p.Close()
	ctx := context.Background()
	reqs := make([]*request, len(stmts))
	dsts := make([][]float64, len(stmts))
	burst := func() {
		for i, s := range stmts {
			reqs[i], _ = p.enqueue(ctx, probsKind, s, dsts[i])
		}
		for i, r := range reqs {
			<-r.done
			dsts[i] = r.out // keep the written row as next round's capacity
			p.release(r)
		}
	}
	for i := 0; i < 4; i++ { // warm request pool, replica scratch, rows
		burst()
	}
	if raceDetectorEnabled {
		burst() // still exercise the path for the race build
	} else if allocs := testing.AllocsPerRun(30, burst); allocs != 0 {
		t.Errorf("fused batch allocs per burst = %v, want 0", allocs)
	}
	if s := p.Stats(); s.EffectiveBatch <= 1 {
		t.Fatalf("EffectiveBatch = %v: bursts should have fused", s.EffectiveBatch)
	}
}
