package online

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/service"
)

// TestChaosKillMidSwap fails the live-marker Put under the canary's
// winning Deploy — the moment a crash mid-swap would hit. The swap
// must not happen (Deploy persists the marker before the pool swap),
// the old version must keep serving bit-identically, and the worker's
// rewind-and-replay must land the swap once the store heals.
func TestChaosKillMidSwap(t *testing.T) {
	inj := faults.NewInjector(1)
	store := faults.NewStore(service.NewMemStore(), inj)
	svc, w := newStack(t, store)
	_, live, err := svc.LiveVersion("m")
	if err != nil {
		t.Fatal(err)
	}
	oracle := live.Replicate()
	stmts := testStatements(8)
	want := oracle.PredictClass(stmts[0])

	// Armed after the initial deploy, so only the canary's swap is hit.
	inj.Add(faults.Rule{Op: faults.OpPut, KeyPrefix: "live/m", Count: 2})

	p, err := Start(testOpts(svc, store, w.Dir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	observeWindow(t, svc, stmts, func(string) int { return 2 })

	// The gate accepts, the deploy fails twice: the candidate must be
	// registered but v1 must still be live and serving its exact
	// pre-chaos predictions.
	waitFor(t, "candidate registration", func() bool {
		return svc.Models()[0].Versions >= 2
	})
	if lv := svc.Models()[0].LiveVersion; lv != 1 {
		t.Fatalf("live version %d during injected deploy failures, want 1", lv)
	}
	pr, err := svc.Predict(context.Background(), "m", stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	if pr.Class != want {
		t.Fatalf("prediction drifted during failed swap: %d, want %d", pr.Class, want)
	}

	// The schedule exhausts; the replayed window swaps for real.
	waitFor(t, "swap after store heals", func() bool { return onlineStats(t, svc).Swaps == 1 })
	if lv := svc.Models()[0].LiveVersion; lv < 2 {
		t.Fatalf("live version %d after healed swap", lv)
	}
	if st := onlineStats(t, svc); st.Windows != 1 {
		t.Fatalf("window decided more than once: %+v", st)
	}
}

// TestChaosKillMidFineTune fails the pipeline's own state Put — a
// crash between the gate decision and its durable commit. The worker
// rewinds to the last durable position and replays the window; the
// replay reaches the same (reject) decision, and neither pass's
// candidate reaches the registry, let alone goes live.
func TestChaosKillMidFineTune(t *testing.T) {
	inj := faults.NewInjector(1)
	store := faults.NewStore(service.NewMemStore(), inj)
	svc, w := newStack(t, store)
	_, live, err := svc.LiveVersion("m")
	if err != nil {
		t.Fatal(err)
	}
	oracle := live.Replicate()
	inj.Add(faults.Rule{Op: faults.OpPut, KeyPrefix: "online/m", Count: 1})

	p, err := Start(testOpts(svc, store, w.Dir(), 0.9))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	observeWindow(t, svc, testStatements(8), oracle.PredictClass)

	waitFor(t, "replayed rejection", func() bool { return onlineStats(t, svc).Rejected == 1 })
	st := onlineStats(t, svc)
	if st.Windows != 1 || st.Swaps != 0 {
		t.Fatalf("replayed window stats = %+v", st)
	}
	if !strings.Contains(st.LastDecision, "rejected") {
		t.Fatalf("decision = %q", st.LastDecision)
	}
	// Both passes rejected their candidate before registering it.
	info := svc.Models()[0]
	if info.Versions != 1 || info.LiveVersion != 1 {
		t.Fatalf("rejected candidate registered or deployed: %+v", info)
	}
	if fired := len(inj.Events()); fired != 1 {
		t.Fatalf("injected %d faults, want 1", fired)
	}

	// Restart over the healed store: the durable decision survives and
	// the decided window does not replay again.
	p.Close()
	p2, err := Start(testOpts(svc, store, w.Dir(), 0.9))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	time.Sleep(100 * time.Millisecond)
	if got := onlineStats(t, svc); got.Windows != 1 || got.Rejected != 1 {
		t.Fatalf("restart after chaos lost the decision: %+v", got)
	}
}
