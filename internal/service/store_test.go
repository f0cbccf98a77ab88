package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestStoreContracts runs the shared Store contract over both
// implementations: put/get round trips, overwrite, ErrNoKey, listing,
// delete idempotence, and hostile key strings (path separators,
// escapes, dots) that a DirStore must not let escape its directory.
func TestStoreContracts(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{"mem": NewMemStore(), "dir": ds}
	for label, st := range stores {
		t.Run(label, func(t *testing.T) {
			if _, err := st.Get("absent"); !errors.Is(err, ErrNoKey) {
				t.Fatalf("Get(absent) err = %v, want ErrNoKey", err)
			}
			keys := []string{
				"v1/model",
				"live/model",
				"v2/weird/../../name",
				"live/%2e%2e",
				"v3/with space and \x01 control",
			}
			for i, key := range keys {
				if err := st.Put(key, []byte{byte(i), 0xff, 0x00}); err != nil {
					t.Fatalf("Put(%q): %v", key, err)
				}
			}
			for i, key := range keys {
				data, err := st.Get(key)
				if err != nil || !bytes.Equal(data, []byte{byte(i), 0xff, 0x00}) {
					t.Fatalf("Get(%q) = %v, %v", key, data, err)
				}
			}
			if err := st.Put(keys[0], []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if data, _ := st.Get(keys[0]); string(data) != "v2" {
				t.Fatalf("overwrite lost: %q", data)
			}
			listed, err := st.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(listed) != len(keys) {
				t.Fatalf("List() = %v, want %d keys", listed, len(keys))
			}
			seen := make(map[string]bool)
			for _, k := range listed {
				seen[k] = true
			}
			for _, key := range keys {
				if !seen[key] {
					t.Fatalf("List() lost key %q (got %v)", key, listed)
				}
			}
			if err := st.Delete(keys[1]); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete(keys[1]); err != nil {
				t.Fatalf("second Delete: %v", err)
			}
			if _, err := st.Get(keys[1]); !errors.Is(err, ErrNoKey) {
				t.Fatalf("Get(deleted) err = %v, want ErrNoKey", err)
			}
		})
	}

	// Nothing the DirStore wrote may live outside its directory, and
	// every name must be flat (escaped, no subdirectories).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			t.Fatalf("DirStore created a subdirectory %q", ent.Name())
		}
	}
	if parent, err := os.ReadDir(filepath.Dir(dir)); err == nil {
		for _, ent := range parent {
			if ent.Name() != filepath.Base(dir) && !ent.IsDir() {
				t.Fatalf("DirStore wrote outside its directory: %q", ent.Name())
			}
		}
	}
}

// TestDirStoreReopen checks persistence across re-opens of the same
// directory — the property the registry's restart story is built on.
func TestDirStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("v1/m", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s2.Get("v1/m")
	if err != nil || string(data) != "payload" {
		t.Fatalf("reopened Get = %q, %v", data, err)
	}
	keys, err := s2.List()
	if err != nil || len(keys) != 1 || keys[0] != "v1/m" {
		t.Fatalf("reopened List = %v, %v", keys, err)
	}
}

// TestParseKey pins the store key schema both ways.
func TestParseKey(t *testing.T) {
	cases := []struct {
		key        string
		name       string
		version    int
		isArtifact bool
		ok         bool
	}{
		{artifactKey("m", 3), "m", 3, true, true},
		{artifactKey("a/b", 12), "a/b", 12, true, true},
		{liveKey("m"), "m", 0, false, true},
		{liveKey("live"), "live", 0, false, true},
		{"v0/m", "", 0, false, false},
		{"vX/m", "", 0, false, false},
		{"m", "", 0, false, false},
		{"live/", "", 0, false, false},
		{"README", "", 0, false, false},
	}
	for _, c := range cases {
		name, version, isArtifact, ok := parseKey(c.key)
		if name != c.name || version != c.version || isArtifact != c.isArtifact || ok != c.ok {
			t.Errorf("parseKey(%q) = (%q, %d, %v, %v), want (%q, %d, %v, %v)",
				c.key, name, version, isArtifact, ok, c.name, c.version, c.isArtifact, c.ok)
		}
	}
}

// TestPersistenceRestart is the durability acceptance test at the
// library level: a registry built over a DirStore is torn down and a
// fresh Service over the same directory warm-boots every version,
// redeploys the recorded live deployment (options included), serves
// bit-identical predictions, and still supports rollback to any
// pre-restart version.
func TestPersistenceRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Serve: serve.Options{Replicas: 1}, Store: store}
	ctx := context.Background()
	stmts := testStatements(20)

	s1 := New(opts)
	if s1.isReady() {
		t.Fatal("store-backed service claims ready before WarmBoot")
	}
	if _, err := s1.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if !s1.isReady() {
		t.Fatal("not ready after empty-store WarmBoot")
	}
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s1.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	if _, err := core.FineTune(m, testSplit().Valid, core.TinyConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	v1 := make([][]float64, len(stmts))
	v2 := make([][]float64, len(stmts))
	for i, stmt := range stmts {
		pr, err := s1.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		v2[i] = pr.Probs
	}
	if _, err := s1.Deploy("errors", 1); err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		pr, err := s1.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		v1[i] = pr.Probs
	}
	// Leave v2 live for the restart.
	if _, err := s1.Deploy("errors", 2); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// "Restart": a fresh process would re-open the same directory.
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store2})
	defer s2.Close()
	if s2.isReady() {
		t.Fatal("restarted service claims ready before WarmBoot")
	}
	rep, err := s2.WarmBoot()
	if err != nil {
		t.Fatal(err)
	}
	if !s2.isReady() {
		t.Fatal("not ready after WarmBoot")
	}
	if rep.Degraded || len(rep.Details) != 0 {
		t.Fatalf("clean store produced a degraded boot report: %+v", rep)
	}
	if len(rep.Deployed) != 1 {
		t.Fatalf("warm boot deployed %d models, want 1", len(rep.Deployed))
	}
	info := rep.Deployed[0]
	if info.Name != "errors" || info.LiveVersion != 2 || info.Versions != 2 {
		t.Fatalf("warm boot info = %+v", info)
	}
	for i, stmt := range stmts {
		pr, err := s2.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Version != 2 {
			t.Fatalf("post-restart version = %d", pr.Version)
		}
		for c := range pr.Probs {
			if pr.Probs[c] != v2[i][c] {
				t.Fatal("post-restart predictions are not bit-identical to pre-restart")
			}
		}
	}
	// Rollback across the restart: v1 was never live at shutdown but
	// every version is persisted.
	if _, err := s2.Deploy("errors", 1); err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		pr, err := s2.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		for c := range pr.Probs {
			if pr.Probs[c] != v1[i][c] {
				t.Fatal("post-restart rollback did not restore v1 exactly")
			}
		}
	}
}

// TestWarmBootValidation covers the boot-path guard rails and
// degradation semantics: non-empty registries are refused, foreign keys
// are skipped, corrupt artifacts are quarantined (not fatal), version
// holes from GC load fine, and a live marker with no artifacts degrades
// the boot instead of killing it.
func TestWarmBootValidation(t *testing.T) {
	store := NewMemStore()
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	defer s.Close()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("errors", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("errors", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WarmBoot(); err == nil {
		t.Fatal("WarmBoot accepted a non-empty registry")
	}
	data, _ := store.Get(artifactKey("errors", 1))
	data2, _ := store.Get(artifactKey("errors", 2))

	// Foreign keys must not break a boot; they count as skipped.
	store2 := NewMemStore()
	store2.Put(artifactKey("errors", 1), data)
	store2.Put("README", []byte("not ours"))
	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store2})
	defer s2.Close()
	rep2, err := s2.WarmBoot()
	if err != nil {
		t.Fatalf("foreign key broke warm boot: %v", err)
	}
	if rep2.Skipped != 1 || rep2.Loaded != 1 {
		t.Fatalf("boot report = %+v, want skipped=1 loaded=1", rep2)
	}
	if models := s2.Models(); len(models) != 1 || models[0].Versions != 1 || models[0].LiveVersion != 0 {
		t.Fatalf("Models() after boot = %+v", models)
	}

	// A corrupt artifact is quarantined — the boot degrades, the blob
	// moves under quarantine/, and the version becomes a hole.
	store3 := NewMemStore()
	garbled := append([]byte(nil), data...)
	garbled[len(garbled)/2] ^= 0x20
	store3.Put(artifactKey("errors", 1), garbled)
	s3 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store3})
	defer s3.Close()
	rep3, err := s3.WarmBoot()
	if err != nil {
		t.Fatalf("corrupt artifact killed the boot: %v", err)
	}
	if !rep3.Degraded || rep3.Quarantined != 1 || rep3.Loaded != 0 {
		t.Fatalf("boot report = %+v, want degraded, quarantined=1", rep3)
	}
	if !s3.isReady() {
		t.Fatal("degraded boot did not reach ready")
	}
	if models := s3.Models(); len(models) != 0 {
		t.Fatalf("corrupt-only model still registered: %+v", models)
	}
	if _, err := store3.Get(artifactKey("errors", 1)); !errors.Is(err, ErrNoKey) {
		t.Fatal("corrupt blob left under its original key")
	}
	if _, err := store3.Get(quarantinePrefix + artifactKey("errors", 1)); err != nil {
		t.Fatalf("corrupt blob not preserved under quarantine/: %v", err)
	}
	// The quarantined blob is skipped (not re-quarantined) next boot.
	s3b := New(Options{Serve: serve.Options{Replicas: 1}, Store: store3})
	defer s3b.Close()
	rep3b, err := s3b.WarmBoot()
	if err != nil {
		t.Fatal(err)
	}
	if rep3b.Quarantined != 0 || rep3b.Skipped != 1 {
		t.Fatalf("reboot over quarantined store = %+v, want skipped=1 quarantined=0", rep3b)
	}

	// A version hole (v1 GC-pruned, only v2 present) is a legitimate
	// store state: v2 loads and deploys.
	store4 := NewMemStore()
	store4.Put(artifactKey("errors", 2), data2)
	s4 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store4})
	defer s4.Close()
	rep4, err := s4.WarmBoot()
	if err != nil {
		t.Fatalf("version hole broke warm boot: %v", err)
	}
	if rep4.Loaded != 1 {
		t.Fatalf("boot report = %+v, want loaded=1", rep4)
	}
	if models := s4.Models(); len(models) != 1 || models[0].Versions != 2 || models[0].Available != 1 {
		t.Fatalf("Models() after holey boot = %+v", models)
	}
	if info, err := s4.Deploy("errors", 0); err != nil || info.LiveVersion != 2 {
		t.Fatalf("Deploy(latest) over hole = %+v, %v", info, err)
	}
	if _, err := s4.Deploy("errors", 1); err == nil {
		t.Fatal("Deploy resurrected a pruned version")
	}

	// A live marker whose artifacts are all gone degrades the boot:
	// the deployment is reported lost, the node still comes up.
	store5 := NewMemStore()
	store5.Put(liveKey("errors"), []byte(`{"version":1}`))
	s5 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store5})
	defer s5.Close()
	rep5, err := s5.WarmBoot()
	if err != nil {
		t.Fatalf("orphan live marker killed the boot: %v", err)
	}
	if !rep5.Degraded || len(rep5.Deployed) != 0 {
		t.Fatalf("boot report = %+v, want degraded with no deployments", rep5)
	}
	if !s5.isReady() {
		t.Fatal("node with lost deployment did not reach ready")
	}
}

// TestWarmBootCorruptMarkerFallback is the live-marker half of the
// quarantine story: a damaged marker (garbage JSON) or a marker naming
// a version that did not survive falls back to the model's highest
// intact version, bit-identically.
func TestWarmBootCorruptMarkerFallback(t *testing.T) {
	store := NewMemStore()
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("errors", m); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	probe := testStatements(1)[0]
	want, err := s.Predict(ctx, "errors", probe)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Garbage where the marker should be: quarantine it, deploy the
	// highest intact version anyway.
	store.Put(liveKey("errors"), []byte("{definitely not json"))
	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	defer s2.Close()
	rep, err := s2.WarmBoot()
	if err != nil {
		t.Fatalf("corrupt live marker killed the boot: %v", err)
	}
	if !rep.Degraded || rep.Quarantined != 1 {
		t.Fatalf("boot report = %+v, want degraded, quarantined=1", rep)
	}
	if len(rep.Deployed) != 1 || rep.Deployed[0].LiveVersion != 2 {
		t.Fatalf("fallback deployed %+v, want v2 live", rep.Deployed)
	}
	if _, err := store.Get(quarantinePrefix + liveKey("errors")); err != nil {
		t.Fatalf("damaged marker not preserved under quarantine/: %v", err)
	}
	got, err := s2.Predict(ctx, "errors", probe)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || len(got.Probs) != len(want.Probs) {
		t.Fatalf("fallback prediction = %+v, want %+v", got, want)
	}
	for c := range want.Probs {
		if got.Probs[c] != want.Probs[c] {
			t.Fatal("fallback predictions are not bit-identical")
		}
	}
	s2.Close()

	// A marker pointing at a version that was quarantined this boot:
	// same fallback, this time to v1.
	store6 := NewMemStore()
	keys, _ := store.List()
	for _, k := range keys {
		if strings.HasPrefix(k, quarantinePrefix) {
			continue
		}
		data, err := store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		store6.Put(k, data)
	}
	v2key := artifactKey("errors", 2)
	blob, _ := store6.Get(v2key)
	blob[len(blob)/2] ^= 0x20
	store6.Put(v2key, blob)
	store6.Put(liveKey("errors"), []byte(`{"version":2}`))
	s6 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store6})
	defer s6.Close()
	rep6, err := s6.WarmBoot()
	if err != nil {
		t.Fatalf("quarantined live version killed the boot: %v", err)
	}
	if !rep6.Degraded || rep6.Quarantined != 1 {
		t.Fatalf("boot report = %+v, want degraded, quarantined=1", rep6)
	}
	if len(rep6.Deployed) != 1 || rep6.Deployed[0].LiveVersion != 1 {
		t.Fatalf("fallback deployed %+v, want v1 live", rep6.Deployed)
	}
}

// TestRegisterUnserializableWithStore: a durable registry refuses
// models the artifact format cannot bring back, instead of silently
// holding them memory-only.
func TestRegisterUnserializableWithStore(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: NewMemStore()})
	defer s.Close()
	m, err := core.Train("mfreq", core.ErrorClassification, testSplit().Train, core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("baseline", m); err == nil {
		t.Fatal("durable registry accepted an unserializable model")
	}
	if models := s.Models(); len(models) != 0 && models[0].Versions != 0 {
		t.Fatalf("failed Register left a version behind: %+v", models)
	}
}

// TestRegisterEmptyName: an empty registry name can never round-trip
// through the store key schema, so it is rejected up front.
func TestRegisterEmptyName(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1}})
	defer s.Close()
	if _, err := s.Register("", trainCCNN(t, core.ErrorClassification)); err == nil {
		t.Fatal("Register accepted an empty name")
	}
}

// TestPerModelAdmissionQuota deploys two models on one rejecting pool
// template and saturates one of them: its stats must attribute the
// rejections to it alone, while the other model — its own pool, its
// own waiting bound — keeps answering and counts none. This is the
// per-model 429 attribution contract of /v1/stats.
func TestPerModelAdmissionQuota(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1, MaxBatch: 1, QueueSize: 1, Admission: serve.AdmitReject}})
	defer s.Close()
	m := trainCCNN(t, core.ErrorClassification)
	stmts := testStatements(10)
	// The hook travels with the snapshots: whichever replica is shown
	// the gate statement parks in it until the gate opens.
	gate, entered, opened := "GATE :: "+stmts[0], make(chan struct{}), make(chan struct{})
	m.SetPredictHook(func(stmt string) {
		if stmt == gate {
			close(entered)
			<-opened
		}
	})
	release := sync.OnceFunc(func() { close(opened) })
	defer release() // before Close, which waits for the parked call
	if _, err := s.Swap("quota", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("open", m); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// With the quota model's single replica on loan, a burst of 60
	// concurrent one-statement callers has room for one waiter in its
	// 1-deep queue, so the quota model must reject — whatever GOMAXPROCS
	// is; the open model's pool is not the one saturated, so it still
	// answers. (The burst is 60 callers, not one 60-statement batch: a
	// batch runs its requests on at most Replicas goroutines, so it
	// never has more of them waiting than it could run.)
	holder, burst := make(chan error, 1), make(chan error, 60)
	go func() {
		_, err := s.Predict(ctx, "quota", gate)
		holder <- err
	}()
	<-entered
	for i := range cap(burst) {
		go func() {
			_, err := s.Predict(ctx, "quota", stmts[i%len(stmts)])
			burst <- err
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		quota, err := s.StatsSnapshot("quota")
		if err != nil {
			t.Fatal(err)
		}
		if quota.Stats.Rejected > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quota model never rejected a burst of 60 callers into a 1-deep queue behind a busy replica")
		}
	}
	if _, err := s.Predict(ctx, "open", stmts[1]); err != nil {
		t.Fatalf("open model errored while the quota model was saturated: %v", err)
	}
	release()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	refused := 0
	for range cap(burst) {
		switch err := <-burst; {
		case errors.Is(err, serve.ErrQueueFull):
			refused++
		case err != nil:
			t.Fatalf("burst caller: err = %v, want nil or ErrQueueFull", err)
		}
	}

	quota, err := s.StatsSnapshot("quota")
	if err != nil {
		t.Fatal(err)
	}
	open, err := s.StatsSnapshot("open")
	if err != nil {
		t.Fatal(err)
	}
	qs, ostats := quota.Stats, open.Stats
	if ostats.Rejected != 0 {
		t.Fatalf("open model attributed %d rejections", ostats.Rejected)
	}
	if qs.Rejected == 0 || qs.Rejected != uint64(refused) {
		t.Fatalf("%d callers saw ErrQueueFull but the quota model's stats attribute %d", refused, qs.Rejected)
	}
	t.Logf("quota model attributed %d rejections; open model 0", qs.Rejected)
}
