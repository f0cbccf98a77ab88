package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestPanicIsolation injects a panic on one specific statement (via the
// model's predict hook) and checks the blast radius: the poisoned
// requests fail with ErrPanicked, every other request succeeds
// bit-identically, the pool keeps serving, Stats attributes each panic,
// and the non-fault warm path still allocates nothing with the hook
// installed.
func TestPanicIsolation(t *testing.T) {
	m := trainedModels(t)["ccnn"]
	stmts := testStatements(12)
	poison := stmts[0]
	healthy := stmts[1:]
	want := make([][]float64, len(healthy))
	for i, s := range healthy {
		want[i] = m.Probs(s)
	}
	m.SetPredictHook(func(stmt string) {
		if stmt == poison {
			panic("poisoned input")
		}
	})
	defer m.SetPredictHook(nil)

	p := NewPredictor(m, Options{Replicas: 2, QueueSize: 64})
	defer p.Close()
	ctx := context.Background()
	const rounds = 5
	for round := 0; round < rounds; round++ {
		if _, err := p.ProbsIntoCtx(ctx, poison, nil); !errors.Is(err, ErrPanicked) {
			t.Fatalf("poisoned request err = %v, want ErrPanicked", err)
		}
		for i, s := range healthy {
			got, err := p.ProbsIntoCtx(ctx, s, nil)
			if err != nil {
				t.Fatalf("healthy request after panic: %v", err)
			}
			for c := range want[i] {
				if got[c] != want[i][c] {
					t.Fatal("healthy prediction drifted after a panic")
				}
			}
		}
	}
	if st := p.Stats(); st.Panics != rounds {
		t.Fatalf("Stats().Panics = %d, want %d", st.Panics, rounds)
	}

	// A poisoned statement inside a batch fails the batch with
	// ErrPanicked rather than returning mixed results.
	if _, err := p.ProbsBatchCtx(ctx, []string{healthy[0], poison, healthy[1]}); !errors.Is(err, ErrPanicked) {
		t.Fatalf("batch with poisoned statement err = %v, want ErrPanicked", err)
	}

	// The recover boundary is free on the success path: zero allocations
	// per warm prediction even with a (non-firing) hook installed.
	dst := make([]float64, 0, 8)
	var err error
	for i := 0; i < 8; i++ {
		if dst, err = p.ProbsIntoCtx(ctx, healthy[0], dst); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		dst, _ = p.ProbsIntoCtx(ctx, healthy[0], dst)
	}); allocs != 0 {
		t.Errorf("non-fault ProbsIntoCtx allocs/op = %v, want 0", allocs)
	}
}

// TestPanicReplicaRebuild drives one replica past panicLimit and checks
// it is retired and rebuilt from the snapshot: Stats().Rebuilds counts
// the rebuilds and post-rebuild predictions are still bit-identical.
func TestPanicReplicaRebuild(t *testing.T) {
	m := trainedModels(t)["clstm"]
	stmts := testStatements(4)
	poison := stmts[0]
	want := m.Probs(stmts[1])
	m.SetPredictHook(func(stmt string) {
		if stmt == poison {
			panic("poisoned input")
		}
	})
	defer m.SetPredictHook(nil)

	p := NewPredictor(m, Options{Replicas: 1, MaxBatch: 1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 2*panicLimit; i++ { // two rebuilds
		if _, err := p.ProbsIntoCtx(ctx, poison, nil); !errors.Is(err, ErrPanicked) {
			t.Fatalf("poisoned request err = %v, want ErrPanicked", err)
		}
	}
	st := p.Stats()
	if st.Panics != 2*panicLimit || st.Rebuilds != 2 {
		t.Fatalf("Stats panics=%d rebuilds=%d, want %d and 2", st.Panics, st.Rebuilds, 2*panicLimit)
	}
	got, err := p.ProbsIntoCtx(ctx, stmts[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatal("rebuilt replica is not bit-identical to the snapshot")
		}
	}
}
