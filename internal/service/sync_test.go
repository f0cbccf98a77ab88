package service

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/serve"
)

// newSyncPair builds two Services over one shared store directory —
// two "nodes" of a cluster — with node A already warm-booted.
func newSyncPair(t *testing.T) (a, b *Service) {
	t.Helper()
	dir := t.TempDir()
	sa, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a = New(Options{Serve: serve.Options{Replicas: 1}, Store: sa})
	if _, err := a.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	b = New(Options{Serve: serve.Options{Replicas: 1}, Store: sb})
	if _, err := b.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func bitsOf(probs []float64) []uint64 {
	out := make([]uint64, len(probs))
	for i, p := range probs {
		out[i] = math.Float64bits(p)
	}
	return out
}

// TestSyncConvergence is the tentpole scenario: deploy on node A,
// predict on node B after one sync pass, bit-identical to A.
func TestSyncConvergence(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("shared", m); err != nil {
		t.Fatal(err)
	}

	// Before the sync, node B has never heard of the model.
	if _, err := b.Predict(ctx, "shared", testStatements(1)[0]); err == nil {
		t.Fatal("node B served a model it never synced")
	}

	rep, err := b.syncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || len(rep.NewModels) != 1 || len(rep.Applied) != 1 {
		t.Fatalf("sync report = %+v, want 1 loaded / 1 new / 1 applied", rep)
	}
	if rep.Quarantined != 0 || len(rep.Details) != 0 {
		t.Fatalf("clean sync reported incidents: %+v", rep)
	}

	for _, stmt := range testStatements(10) {
		pa, err := a.Predict(ctx, "shared", stmt)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Predict(ctx, "shared", stmt)
		if err != nil {
			t.Fatalf("node B predict after sync: %v", err)
		}
		if pa.Class != pb.Class || pa.Version != pb.Version {
			t.Fatalf("nodes disagree: A=%+v B=%+v", pa, pb)
		}
		ba, bb := bitsOf(pa.Probs), bitsOf(pb.Probs)
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("probs[%d] differ bitwise: %x vs %x", i, ba[i], bb[i])
			}
		}
	}

	// A second pass is a no-op: same marker generation, nothing new.
	rep, err = b.syncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed() {
		t.Fatalf("idle sync pass reported changes: %+v", rep)
	}
}

// TestSyncFollowsRedeploy: a new version and redeploy on A move B's
// live version on the next pass.
func TestSyncFollowsRedeploy(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("m", m); err != nil {
		t.Fatal(err)
	}
	if _, err := b.syncStore(); err != nil {
		t.Fatal(err)
	}

	m2 := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("m", m2); err != nil {
		t.Fatal(err)
	}
	rep, err := b.syncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || len(rep.Applied) != 1 || rep.Applied[0].LiveVersion != 2 {
		t.Fatalf("redeploy sync report = %+v, want v2 applied", rep)
	}
	p, err := b.Predict(ctx, "m", testStatements(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 2 {
		t.Fatalf("node B serves v%d after sync, want v2", p.Version)
	}
}

// TestSyncLocalWinsTies: a marker whose generation does not exceed the
// entry's is ignored — a node's own explicit deploys beat anything it
// merely observed at the same generation.
func TestSyncLocalWinsTies(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("m", m); err != nil { // gen 1
		t.Fatal(err)
	}
	m2 := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Register("m", m2); err != nil { // v2, not deployed
		t.Fatal(err)
	}
	if _, err := b.syncStore(); err != nil { // B at gen 1, serving v1
		t.Fatal(err)
	}

	// B explicitly deploys v2: gen 2, marker rewritten by B.
	if _, err := b.Deploy("m", 2); err != nil {
		t.Fatal(err)
	}

	// Forge a same-generation marker naming v1 (what a concurrent
	// deploy on another node would have written losing the race).
	rec, err := json.Marshal(liveRecord{Version: 1, Gen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.opts.Store.Put(liveKey("m"), rec); err != nil {
		t.Fatal(err)
	}
	rep, err := b.syncStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 0 {
		t.Fatalf("tie-generation marker was applied: %+v", rep)
	}
	p, err := b.Predict(ctx, "m", testStatements(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 2 {
		t.Fatalf("local deploy lost the tie: serving v%d", p.Version)
	}

	// A strictly newer generation does win.
	rec, err = json.Marshal(liveRecord{Version: 1, Gen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.opts.Store.Put(liveKey("m"), rec); err != nil {
		t.Fatal(err)
	}
	rep, err = b.syncStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 1 {
		t.Fatalf("newer-generation marker not applied: %+v", rep)
	}
	p, err = b.Predict(ctx, "m", testStatements(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 1 {
		t.Fatalf("gen-3 marker names v1, node serves v%d", p.Version)
	}
	_ = a
}

// TestSyncQuarantinesDamage: a blob corrupted between nodes gets
// WarmBoot's quarantine treatment mid-sync, and the survivors still
// converge.
func TestSyncQuarantinesDamage(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("good", m); err != nil {
		t.Fatal(err)
	}
	// A fake second model whose only artifact is garbage.
	if err := a.opts.Store.Put(artifactKey("bad", 1), []byte("not an artifact")); err != nil {
		t.Fatal(err)
	}

	rep, err := b.syncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (report %+v)", rep.Quarantined, rep)
	}
	if _, err := b.Predict(ctx, "good", testStatements(1)[0]); err != nil {
		t.Fatalf("intact model did not survive the damaged one: %v", err)
	}
	keys, err := b.opts.Store.List()
	if err != nil {
		t.Fatal(err)
	}
	var parked bool
	for _, k := range keys {
		if k == quarantinePrefix+artifactKey("bad", 1) {
			parked = true
		}
		if k == artifactKey("bad", 1) {
			t.Fatal("damaged artifact left in place")
		}
	}
	if !parked {
		t.Fatal("damaged artifact not parked under quarantine/")
	}

	// The damaged model never becomes a registry entry.
	for _, info := range b.Models() {
		if info.Name == "bad" {
			t.Fatal("model with no intact versions was registered")
		}
	}
}

// TestSyncMarkerGenerationSurvivesReboot: WarmBoot restores the
// marker's generation instead of minting a new one, so a rebooted node
// neither hijacks ties nor re-applies its own marker.
func TestSyncMarkerGenerationSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	if _, err := s1.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s1.Swap("m", m); err != nil {
		t.Fatal(err)
	}
	readGen := func() int64 {
		t.Helper()
		data, err := store.Get(liveKey("m"))
		if err != nil {
			t.Fatal(err)
		}
		var rec liveRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		return rec.Gen
	}
	if g := readGen(); g != 1 {
		t.Fatalf("gen after first deploy = %d, want 1", g)
	}
	s1.Close()

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store2})
	defer s2.Close()
	if _, err := s2.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if g := readGen(); g != 1 {
		t.Fatalf("gen after reboot = %d, want 1 (reboot must not mint a generation)", g)
	}
	// A post-reboot explicit deploy continues the sequence.
	if _, err := s2.Deploy("m", 1); err != nil {
		t.Fatal(err)
	}
	if g := readGen(); g != 2 {
		t.Fatalf("gen after post-reboot deploy = %d, want 2", g)
	}
}

// TestWatchStore: the background watcher converges B onto A's deploy
// within a few intervals, logs the pass, stops idempotently, and is a
// no-op without a store.
func TestWatchStore(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()

	logc := make(chan string, 64)
	stop := b.WatchStore(5*time.Millisecond, func(format string, args ...any) {
		select {
		case logc <- strings.TrimSpace(format):
		default:
		}
	})
	defer stop()

	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("watched", m); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := b.Predict(ctx, "watched", testStatements(1)[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node B did not converge within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case line := <-logc:
		if !strings.Contains(line, "store sync") {
			t.Fatalf("watcher log line = %q", line)
		}
	case <-time.After(time.Second):
		t.Fatal("watcher never logged the convergence pass")
	}
	stop()
	stop() // idempotent

	// Storeless / disabled watchers return immediate no-op stops.
	storeless := New(Options{Serve: serve.Options{Replicas: 1}})
	defer storeless.Close()
	storeless.WatchStore(time.Millisecond, nil)()
	b.WatchStore(0, nil)()
}

// TestWatchStoreExitsOnClose: the watcher goroutine drains on its own
// once the service closes (no goroutine leak without calling stop).
func TestWatchStoreExitsOnClose(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	stop := s.WatchStore(time.Millisecond, nil)
	s.Close()
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() hung after Close")
	}
}

// TestParentFormatStore boots and syncs a store written before
// deployments lost their pool overrides: the live marker still carries
// admission/queue_size/replicas fields. Readers ignore them, so the
// model redeploys at the same version and generation under the
// template, and the marker is rewritten as just {version, gen}.
func TestParentFormatStore(t *testing.T) {
	store := NewMemStore()
	m := trainCCNN(t, core.ErrorClassification)
	snap := m.Snapshot()
	snap.Version = 1
	data, err := artifact.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(artifactKey("errors", 1), data); err != nil {
		t.Fatal(err)
	}
	old := `{"version":1,"gen":3,"admission":"reject","queue_size":5,"replicas":1}`
	if err := store.Put(liveKey("errors"), []byte(old)); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stmts := testStatements(8)
	predictsLike := func(s *Service) {
		t.Helper()
		for _, stmt := range stmts {
			pr, err := s.Predict(ctx, "errors", stmt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := bitsOf(pr.Probs), bitsOf(m.Probs(stmt)); pr.Version != 1 || !slices.Equal(got, want) {
				t.Fatalf("v%d predicts %v, model %v", pr.Version, got, want)
			}
		}
	}

	a := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	defer a.Close()
	rep, err := a.WarmBoot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.Quarantined != 0 || len(rep.Deployed) != 1 || rep.Deployed[0].LiveVersion != 1 {
		t.Fatalf("boot report = %+v", rep)
	}
	predictsLike(a)
	if marker, err := store.Get(liveKey("errors")); err != nil || string(marker) != `{"version":1,"gen":3}` {
		t.Fatalf("rewritten live marker = %s, %v", marker, err)
	}
	if info, err := json.Marshal(rep.Deployed[0]); err != nil || strings.Contains(string(info), `"deploy"`) {
		t.Fatalf("ModelInfo JSON = %s, %v", info, err)
	}

	b := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	defer b.Close()
	srep, err := b.syncStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(srep.Applied) != 1 || srep.Applied[0].LiveVersion != 1 || srep.Quarantined != 0 {
		t.Fatalf("second node's sync = %+v", srep)
	}
	predictsLike(b)
	if again, err := a.syncStore(); err != nil || again.Changed() {
		t.Fatalf("first node's next sync = %+v, %v; want nothing applied", again, err)
	}
}
