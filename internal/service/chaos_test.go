package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve"
)

// The chaos suite drives the whole registry stack — store, boot,
// registry, pools — through injected failures and crash debris, and
// asserts the survival contract: no acked deploy is ever lost, no
// prediction ever mixes versions, damage degrades a node instead of
// killing it, and the warm path stays allocation-free through it all.
// Every test runs under -race in CI (the smoke step runs exactly
// `-run TestChaos`).

// TestChaosCorruptionAcrossRestart is the headline acceptance scenario:
// three deployed models go down in a "crash", one of the three
// artifacts rots on disk, and the restarted node must come up ready —
// healthz 200, the two intact models serving bit-identical predictions,
// the corrupt one quarantined and reported.
func TestChaosCorruptionAcrossRestart(t *testing.T) {
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
	names := []string{"chaos-a", "chaos-b", "chaos-c"}
	for _, name := range names {
		if _, err := s1.Swap(name, m); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	stmts := testStatements(8)
	want := make(map[string][][]float64)
	for _, name := range names {
		probs := make([][]float64, len(stmts))
		for i, stmt := range stmts {
			pr, err := s1.Predict(ctx, name, stmt)
			if err != nil {
				t.Fatal(err)
			}
			probs[i] = pr.Probs
		}
		want[name] = probs
	}
	s1.Close() // the "crash" (all state is already durable)

	// Bit rot hits chaos-c's only artifact while the process is down.
	if err := faults.Corrupt(store, artifactKey("chaos-c", 1)); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store2})
	defer s2.Close()
	rep, err := s2.WarmBoot()
	if err != nil {
		t.Fatalf("corruption killed the boot: %v", err)
	}
	if !s2.isReady() {
		t.Fatal("node did not reach ready")
	}
	if rep.Quarantined != 1 || !rep.Degraded || rep.Loaded != 2 {
		t.Fatalf("boot report = %+v, want quarantined=1 loaded=2 degraded", rep)
	}
	if len(rep.Deployed) != 2 {
		t.Fatalf("deployed %d models, want the 2 intact ones", len(rep.Deployed))
	}
	for _, name := range []string{"chaos-a", "chaos-b"} {
		for i, stmt := range stmts {
			pr, err := s2.Predict(ctx, name, stmt)
			if err != nil {
				t.Fatalf("%s after degraded boot: %v", name, err)
			}
			if pr.Version != 1 {
				t.Fatalf("%s serves v%d, want v1", name, pr.Version)
			}
			for c := range pr.Probs {
				if pr.Probs[c] != want[name][i][c] {
					t.Fatalf("%s predictions drifted across the degraded restart", name)
				}
			}
		}
	}
	if _, err := s2.Predict(ctx, "chaos-c", stmts[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quarantined-only model err = %v, want ErrNotFound", err)
	}

	// The healthz body carries the whole story: 200, degraded, counts.
	srv := httptest.NewServer(NewHandler(s2))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var hz struct {
		Status string  `json:"status"`
		Boot   *Report `json:"boot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Boot == nil || hz.Boot.Quarantined != 1 {
		t.Fatalf("healthz body = %+v, want degraded with quarantined=1", hz)
	}

	// The warm predict path is still allocation-free after all of it.
	e, err := s2.entry("chaos-a")
	if err != nil {
		t.Fatal(err)
	}
	pred := e.live.Load().pred
	dst := make([]float64, 0, 8)
	for i := 0; i < 8; i++ {
		if dst, err = pred.ProbsIntoCtx(ctx, stmts[0], dst); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		dst, _ = pred.ProbsIntoCtx(ctx, stmts[0], dst)
	}); allocs != 0 {
		t.Errorf("post-chaos warm predict allocs/op = %v, want 0", allocs)
	}
}

// TestChaosKillRestartMidDeploy kills a deploy between its artifact
// write and its live-marker write (injected marker-Put failure), drops
// crash debris (a torn rename temp) into the store directory, and
// restarts. The contract: the failed deploy was never acked, so the
// node must come back serving exactly the last acked deployment — and
// the unacked version's artifact, which did persist, stays available
// for an explicit deploy.
func TestChaosKillRestartMidDeploy(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(42)
	fstore := faults.NewStore(inner, inj)
	s1 := New(Options{Serve: serve.Options{Replicas: 1}, Store: fstore})
	if _, err := s1.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s1.Swap("errors", m); err != nil { // acked: v1 live
		t.Fatal(err)
	}
	ctx := context.Background()
	stmts := testStatements(6)
	want := make([][]float64, len(stmts))
	for i, stmt := range stmts {
		pr, err := s1.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pr.Probs
	}

	// The "kill": the next live-marker write fails, so the v2 Swap's
	// Register lands but its Deploy does not — the caller gets an error,
	// nothing was acked.
	inj.Add(faults.Rule{Op: faults.OpPut, KeyPrefix: "live/", Count: 1})
	if _, err := s1.Swap("errors", m); err == nil {
		t.Fatal("Swap acked despite the marker write failing")
	}
	if pr, err := s1.Predict(ctx, "errors", stmts[0]); err != nil || pr.Version != 1 {
		t.Fatalf("failed deploy disturbed the live pool: %+v, %v", pr, err)
	}
	s1.Close()

	// Crash debris: a rename temp file a dying process left behind.
	if _, err := faults.TornTemp(dir, []byte("half a blob")); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirStore(dir) // sweeps the temp
	if err != nil {
		t.Fatal(err)
	}
	keys, err := store2.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if strings.Contains(k, ".tmp-") {
			t.Fatalf("torn temp surfaced from List: %q", k)
		}
	}
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Fatalf("torn temp %q survived the sweep", ent.Name())
		}
	}
	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store2})
	defer s2.Close()
	rep, err := s2.WarmBoot()
	if err != nil {
		t.Fatal(err)
	}
	// v1 and v2 artifacts both persisted; only v1 was ever acked live.
	if len(rep.Deployed) != 1 || rep.Deployed[0].LiveVersion != 1 || rep.Deployed[0].Versions != 2 {
		t.Fatalf("restart deployed %+v, want v1 live of 2 versions", rep.Deployed)
	}
	for i, stmt := range stmts {
		pr, err := s2.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Version != 1 {
			t.Fatalf("prediction came from v%d, want the acked v1", pr.Version)
		}
		for c := range pr.Probs {
			if pr.Probs[c] != want[i][c] {
				t.Fatal("acked deployment's predictions drifted across restart")
			}
		}
	}
	// The unacked-but-persisted v2 deploys cleanly on request.
	if info, err := s2.Deploy("errors", 2); err != nil || info.LiveVersion != 2 {
		t.Fatalf("explicit deploy of persisted v2 = %+v, %v", info, err)
	}
}

// TestChaosPartialWriteAtBoot: a torn artifact write (the on-disk state
// a crash mid-Put leaves when the rename still happened) must fail the
// checksum on the next boot and be quarantined, never served.
func TestChaosPartialWriteAtBoot(t *testing.T) {
	mem := NewMemStore()
	inj := faults.NewInjector(7)
	fstore := faults.NewStore(mem, inj)
	s1 := New(Options{Serve: serve.Options{Replicas: 1}, Store: fstore})
	if _, err := s1.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s1.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	// v2's artifact write tears: half the payload lands, caller errors.
	inj.Add(faults.Rule{Op: faults.OpPut, KeyPrefix: "v2/", Count: 1, Partial: true})
	if _, err := s1.Register("errors", m); err == nil {
		t.Fatal("Register acked a torn write")
	}
	s1.Close()

	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: mem})
	defer s2.Close()
	rep, err := s2.WarmBoot()
	if err != nil {
		t.Fatalf("torn artifact killed the boot: %v", err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("boot report = %+v, want the torn v2 quarantined", rep)
	}
	if len(rep.Deployed) != 1 || rep.Deployed[0].LiveVersion != 1 {
		t.Fatalf("restart deployed %+v, want v1 live", rep.Deployed)
	}
}

// TestChaosRegisterStoreErrors: injected disk errors during Register
// must fail the call with the store and registry still agreeing — no
// orphaned versions on either side — and a retry must succeed with the
// version number the failure never burned.
func TestChaosRegisterStoreErrors(t *testing.T) {
	mem := NewMemStore()
	inj := faults.NewInjector(99)
	inj.Add(faults.Rule{Op: faults.OpPut, KeyPrefix: "v", Count: 2})
	fstore := faults.NewStore(mem, inj)
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: fstore})
	defer s.Close()
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	for i := 0; i < 2; i++ {
		if _, err := s.Register("errors", m); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("Register with failing store err = %v, want ErrInjected", err)
		}
		if models := s.Models(); len(models) != 0 && models[0].Available != 0 {
			t.Fatalf("failed Register left registry state: %+v", models)
		}
		if keys, _ := mem.List(); len(keys) != 0 {
			t.Fatalf("failed Register left store state: %v", keys)
		}
	}
	info, err := s.Register("errors", m)
	if err != nil {
		t.Fatalf("Register after faults cleared: %v", err)
	}
	if info.Version != 1 {
		t.Fatalf("recovered Register got v%d, want v1 (failures burn no numbers)", info.Version)
	}
	if _, err := mem.Get(artifactKey("errors", 1)); err != nil {
		t.Fatal("recovered Register did not persist")
	}
}

// TestChaosDirStorePutRetry: DirStore.Put absorbs one transient write
// failure per call (retry-once) but still surfaces persistent ones.
func TestChaosDirStorePutRetry(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	failures := 1
	realCreate := ds.createTemp
	ds.createTemp = func(d, pattern string) (*os.File, error) {
		if failures > 0 {
			failures--
			return nil, errors.New("transient disk error")
		}
		return realCreate(d, pattern)
	}
	if err := ds.Put("v1/m", []byte("payload")); err != nil {
		t.Fatalf("Put with one transient failure: %v", err)
	}
	if data, err := ds.Get("v1/m"); err != nil || string(data) != "payload" {
		t.Fatalf("retried Put lost data: %q, %v", data, err)
	}
	failures = 2 // both attempts fail
	if err := ds.Put("v1/n", []byte("payload")); err == nil {
		t.Fatal("Put swallowed a persistent failure")
	}
	// A failed rename must not leak its temp file into the directory.
	failures = 0
	realRename := ds.rename
	ds.rename = func(oldpath, newpath string) error { return errors.New("rename failed") }
	if err := ds.Put("v1/o", []byte("payload")); err == nil {
		t.Fatal("Put swallowed a rename failure")
	}
	ds.rename = realRename
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), tmpPrefix) {
			t.Fatalf("failed Put leaked temp file %q", filepath.Join(dir, ent.Name()))
		}
	}
}
