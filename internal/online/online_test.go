package online

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/simdb"
	"repro/internal/synth"
	"repro/internal/workload"
)

// testSplit is one small fixed workload shared by the tests.
var testSplit = sync.OnceValue(func() workload.Split {
	w := synth.NewSDSS(synth.SDSSConfig{Sessions: 300, HitsPerSessionMax: 2, Seed: 9}).Generate()
	return workload.RandomSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(7)))
})

// newStack builds a deployed service over a tiny ccnn plus an ingest
// WAL, all store-backed so pipeline progress is durable.
func newStack(t *testing.T, store service.Store) (*service.Service, *ingest.WAL) {
	t.Helper()
	m, err := core.Train("ccnn", core.ErrorClassification, testSplit().Train[:12], core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	svc := service.New(service.Options{
		Serve: serve.Options{Replicas: 1},
		Store: store, Ingest: w,
	})
	t.Cleanup(svc.Close)
	if _, err := svc.Register("m", m); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Deploy("m", 0); err != nil {
		t.Fatal(err)
	}
	return svc, w
}

// observeWindow appends n observed records labeled by label(stmt).
func observeWindow(t *testing.T, svc *service.Service, stmts []string, label func(string) int) {
	t.Helper()
	for _, stmt := range stmts {
		if err := svc.Observe("m", stmt, label(stmt), 0); err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testOpts(svc *service.Service, store service.Store, dir string, margin float64) Options {
	cfg := core.TinyConfig()
	// Enough fine-tune passes that a tiny window actually moves the
	// tiny model: the gate tests need candidates that learned their
	// window, good or bad.
	cfg.Epochs = 8
	return Options{
		Service: svc, Store: store, Dir: dir, Models: []string{"m"},
		Window: 8, Margin: margin,
		Interval: 5 * time.Millisecond, Config: cfg,
	}
}

func onlineStats(t *testing.T, svc *service.Service) service.OnlineStats {
	t.Helper()
	snap, err := svc.StatsSnapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Online == nil {
		t.Fatal("stats snapshot has no online section")
	}
	return *snap.Online
}

// TestDriftTriggersSwap is the pipeline's happy path: the workload
// drifts (every statement now resolves to class 2, which the stale
// model cannot know), the trainer fine-tunes on the observed outcomes,
// and the canary swaps the candidate in because it beats the stale
// model on the held-out slice.
func TestDriftTriggersSwap(t *testing.T) {
	store := service.NewMemStore()
	svc, w := newStack(t, store)
	p, err := Start(testOpts(svc, store, w.Dir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stmts := testStatements(8)
	observeWindow(t, svc, stmts, func(string) int { return 2 })
	waitFor(t, "swap", func() bool { return onlineStats(t, svc).Swaps == 1 })

	st := onlineStats(t, svc)
	if st.Windows != 1 || st.Candidates != 1 || st.Rollbacks != 0 {
		t.Fatalf("pipeline stats = %+v", st)
	}
	if !strings.Contains(st.LastDecision, "swapped v1 → v2") {
		t.Fatalf("decision = %q", st.LastDecision)
	}
	models := svc.Models()
	if len(models) != 1 || models[0].LiveVersion != 2 {
		t.Fatalf("live version = %+v", models)
	}
}

// TestGateRejectsNonImprovement labels traffic with the live model's
// own predictions — the candidate cannot beat a model that is already
// perfect on the window — and demands a huge margin on top. Window
// after window the candidate must be dropped: never deployed, and
// never left behind in the registry or the store.
func TestGateRejectsNonImprovement(t *testing.T) {
	store := service.NewMemStore()
	svc, w := newStack(t, store)
	_, live, err := svc.LiveVersion("m")
	if err != nil {
		t.Fatal(err)
	}
	oracle := live.Replicate()
	p, err := Start(testOpts(svc, store, w.Dir(), 0.9))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	keysBefore, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	const windows = 3
	for n := 1; n <= windows; n++ {
		observeWindow(t, svc, testStatements(8), oracle.PredictClass)
		waitFor(t, "rejection", func() bool { return onlineStats(t, svc).Rejected == uint64(n) })
	}

	st := onlineStats(t, svc)
	if st.Swaps != 0 || st.Candidates != windows || st.Windows != windows {
		t.Fatalf("pipeline stats = %+v", st)
	}
	models := svc.Models()
	if models[0].LiveVersion != 1 || models[0].Versions != 1 {
		t.Fatalf("rejected candidates deployed or kept in the registry: %+v", models[0])
	}
	// The store gained the pipeline's own progress record and nothing
	// else: no artifact per rejected candidate.
	keysAfter, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	keysAfter = slices.DeleteFunc(keysAfter, func(k string) bool { return k == stateKey("m") })
	slices.Sort(keysBefore)
	slices.Sort(keysAfter)
	if !slices.Equal(keysAfter, keysBefore) {
		t.Fatalf("store keys after %d rejected windows = %v, want %v", windows, keysAfter, keysBefore)
	}
}

// TestPostSwapRollback forces a bad swap (negative margin accepts a
// candidate fine-tuned on systematically wrong labels), then feeds a
// clean window: the rollback watch scores the new live version against
// the previous one on fresh holdout traffic and deploys the previous
// version back.
func TestPostSwapRollback(t *testing.T) {
	store := service.NewMemStore()
	svc, w := newStack(t, store)
	_, live, err := svc.LiveVersion("m")
	if err != nil {
		t.Fatal(err)
	}
	oracle := live.Replicate()
	p, err := Start(testOpts(svc, store, w.Dir(), -2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Window 1: labels systematically disagree with the live model, so
	// the force-accepted candidate is trained into the ground.
	wrong := func(stmt string) int { return (oracle.PredictClass(stmt) + 1) % simdb.NumErrorClasses }
	observeWindow(t, svc, testStatements(8), wrong)
	waitFor(t, "bad swap", func() bool { return onlineStats(t, svc).Swaps == 1 })

	// Window 2: clean traffic. The previous version is perfect on it,
	// the swapped-in candidate is not — roll back.
	observeWindow(t, svc, testStatements(8), oracle.PredictClass)
	waitFor(t, "rollback", func() bool { return onlineStats(t, svc).Rollbacks == 1 })

	st := onlineStats(t, svc)
	if !strings.Contains(st.LastDecision, "rolled back v2 → v1") {
		t.Fatalf("decision = %q", st.LastDecision)
	}
	if svc.Models()[0].LiveVersion != 1 {
		t.Fatalf("live version after rollback = %+v", svc.Models()[0])
	}

	// The watch scores private frozen replicas. That must be the decision
	// the registry's own snapshots give when scored directly, to the
	// digit: same two scores on the window's held-out tail.
	var hold []workload.Item
	for _, stmt := range testStatements(8)[6:] { // holdout 0.25 of Window 8
		hold = append(hold, workload.Item{Statement: stmt, ErrorClass: simdb.ErrorClass(oracle.PredictClass(stmt))})
	}
	v1, err1 := svc.VersionModel("m", 1)
	v2, err2 := svc.VersionModel("m", 2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	want := fmt.Sprintf("rolled back v2 → v1 (live %.4f vs prev %.4f on %d held out)",
		score(v2.Task, v2, hold), score(v1.Task, v1, hold), len(hold))
	if st.LastDecision != want {
		t.Fatalf("decision = %q, scoring the snapshots directly gives %q", st.LastDecision, want)
	}
}

// TestCanaryDeterminism runs two independent stacks over identical
// WAL traffic: both must reach the same gate decision and produce
// bit-identical candidate weights.
func TestCanaryDeterminism(t *testing.T) {
	run := func() (string, []byte) {
		store := service.NewMemStore()
		svc, w := newStack(t, store)
		p, err := Start(testOpts(svc, store, w.Dir(), 0))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		observeWindow(t, svc, testStatements(8), func(string) int { return 2 })
		waitFor(t, "decision", func() bool { return onlineStats(t, svc).Windows == 1 })
		cand, err := svc.VersionModel("m", 2)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := artifact.Encode(cand)
		if err != nil {
			t.Fatal(err)
		}
		return onlineStats(t, svc).LastDecision, blob
	}
	dec1, blob1 := run()
	dec2, blob2 := run()
	if dec1 != dec2 {
		t.Fatalf("gate decisions diverge:\n %q\n %q", dec1, dec2)
	}
	if !bytes.Equal(blob1, blob2) {
		t.Fatal("candidate weights are not bit-identical across runs")
	}
}

// TestRestartResumesFromDurableState closes the pipeline after one
// decided window and restarts it over the same store and WAL: the
// counters survive and the decided window is not reprocessed.
func TestRestartResumesFromDurableState(t *testing.T) {
	store := service.NewMemStore()
	svc, w := newStack(t, store)
	opts := testOpts(svc, store, w.Dir(), 0)
	p, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	observeWindow(t, svc, testStatements(8), func(string) int { return 2 })
	waitFor(t, "first decision", func() bool { return onlineStats(t, svc).Windows == 1 })
	p.Close()

	p, err = Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st := onlineStats(t, svc)
	if st.Windows != 1 || st.Swaps != 1 {
		t.Fatalf("restart lost durable state: %+v", st)
	}
	// No new traffic: the decided window must not replay.
	time.Sleep(100 * time.Millisecond)
	if got := onlineStats(t, svc); got.Windows != 1 || got.Candidates != 1 {
		t.Fatalf("decided window reprocessed after restart: %+v", got)
	}
}

// TestStartRefusesUnsplittableWindow checks a window too small to hold
// both a training and a holdout record is refused rather than replaced
// by the default.
func TestStartRefusesUnsplittableWindow(t *testing.T) {
	store := service.NewMemStore()
	svc, w := newStack(t, store)
	for _, window := range []int{1, -4} {
		opts := testOpts(svc, store, w.Dir(), 0)
		opts.Window = window
		p, err := Start(opts)
		if err == nil {
			p.Close()
			t.Fatalf("Window %d: pipeline started", window)
		}
	}
}

// TestOutOfRangeLabelStopsLearner replays a WAL written before Observe
// checked classes: one observed record carries class 7 for a
// three-class model. Fine-tuning on it must stop that model's learner
// with a log line — not panic the process — and leave the live version
// deployed and serving.
func TestOutOfRangeLabelStopsLearner(t *testing.T) {
	store := service.NewMemStore()
	svc, w := newStack(t, store)
	stmts := testStatements(8)
	for i, stmt := range stmts {
		class := int32(0)
		if i == 0 { // a training record, not a held-out one
			class = 7
		}
		rec := ingest.Record{Time: time.Now().UnixNano(), Kind: ingest.Observed, Model: "m", Statement: stmt, Class: class}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var lines []string
	opts := testOpts(svc, store, w.Dir(), 0)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	p, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	waitFor(t, "the learner to stop", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.ContainsFunc(lines, func(l string) bool {
			return strings.Contains(l, "stopping trainer") && strings.Contains(l, "class 7")
		})
	})
	if st := onlineStats(t, svc); st.Windows != 0 || st.Candidates != 0 || st.Swaps != 0 {
		t.Fatalf("pipeline stats = %+v, want no window decided", st)
	}
	if v, _, err := svc.LiveVersion("m"); err != nil || v != 1 {
		t.Fatalf("live version = %d, %v; want v1", v, err)
	}
	if _, err := svc.Predict(context.Background(), "m", stmts[0]); err != nil {
		t.Fatalf("predict after the learner stopped: %v", err)
	}
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
