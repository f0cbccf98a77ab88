package service

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestReplayWarmBootMatchesSyncStore is the differential test behind
// the shared store-replay code: a fresh Service that reads a populated
// store back through WarmBoot, and one that reads an identical copy
// back through syncStore, must end in the same registry state — same
// versions, holes, live versions, deploy options and generations, and
// bit-identical predictions — first on an intact store, then with one
// artifact corrupted, which both must quarantine identically.
func TestReplayWarmBootMatchesSyncStore(t *testing.T) {
	origin := populatedStore(t)
	for _, damaged := range []bool{false, true} {
		t.Run(fmt.Sprintf("damaged=%v", damaged), func(t *testing.T) {
			bootStore, syncStore := copyStore(t, origin), copyStore(t, origin)
			if damaged {
				// The newest version of a deployed model: the hole it
				// leaves must still reserve the number on both paths.
				for _, st := range []*MemStore{bootStore, syncStore} {
					if err := st.Put(artifactKey("errors", 4), []byte("not an artifact")); err != nil {
						t.Fatal(err)
					}
				}
			}
			booted := New(Options{Serve: serve.Options{Replicas: 1}, Store: bootStore})
			defer booted.Close()
			bootRep, err := booted.WarmBoot()
			if err != nil {
				t.Fatal(err)
			}
			synced := New(Options{Serve: serve.Options{Replicas: 1}, Store: syncStore})
			defer synced.Close()
			syncRep, err := synced.syncStore()
			if err != nil {
				t.Fatal(err)
			}

			want, got := registryState(t, booted), registryState(t, synced)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("registries differ\nWarmBoot:  %v\nSyncStore: %v", want, got)
			}
			if len(want) != 3 {
				t.Fatalf("expected three models replayed, got %v", want)
			}
			if bootRep.Loaded != syncRep.Loaded || bootRep.Quarantined != syncRep.Quarantined {
				t.Fatalf("reports differ: boot loaded=%d quarantined=%d, sync loaded=%d quarantined=%d",
					bootRep.Loaded, bootRep.Quarantined, syncRep.Loaded, syncRep.Quarantined)
			}
			if !reflect.DeepEqual(bootRep.Details, syncRep.Details) {
				t.Fatalf("incident logs differ\nWarmBoot:  %q\nSyncStore: %q", bootRep.Details, syncRep.Details)
			}
			if (bootRep.Quarantined == 1) != damaged {
				t.Fatalf("quarantined = %d with damaged=%v", bootRep.Quarantined, damaged)
			}
			if damaged && !strings.Contains(strings.Join(bootRep.Details, "\n"), artifactKey("errors", 4)) {
				t.Fatalf("incident log does not name the damaged artifact: %q", bootRep.Details)
			}
			if want, got := storeContents(t, bootStore), storeContents(t, syncStore); !reflect.DeepEqual(want, got) {
				t.Fatalf("stores differ after replay\nWarmBoot:  %v\nSyncStore: %v", sortedKeys(want), sortedKeys(got))
			}
			if _, parked := storeContents(t, bootStore)[quarantinePrefix+artifactKey("errors", 4)]; parked != damaged {
				t.Fatalf("quarantine copy present = %v, want %v", parked, damaged)
			}
			ctx := context.Background()
			for _, name := range []string{"errors", "rows"} {
				for _, stmt := range testStatements(5) {
					a, err := booted.Predict(ctx, name, stmt)
					if err != nil {
						t.Fatal(err)
					}
					b, err := synced.Predict(ctx, name, stmt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s predictions differ: %+v vs %+v", name, a, b)
					}
				}
			}
		})
	}
}

// populatedStore runs a service over a fresh MemStore and leaves in it:
// "errors" with four versions (v1 pruned, so a hole; v3 live under
// non-default deploy options, redeployed once so its generation is 2),
// "rows" with one live version, and "cold", registered but never
// deployed.
func populatedStore(t *testing.T) *MemStore {
	t.Helper()
	store := NewMemStore()
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	defer s.Close()
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	errs := trainCCNN(t, core.ErrorClassification)
	for v := 1; v <= 4; v++ {
		if _, err := s.Register("errors", errs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Deploy("errors", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy("errors", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("rows", trainCCNN(t, core.AnswerSizePrediction)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("cold", errs); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(artifactKey("errors", 1)); err != nil {
		t.Fatal(err)
	}
	return store
}

func copyStore(t *testing.T, src *MemStore) *MemStore {
	t.Helper()
	dst := NewMemStore()
	for key, data := range storeContents(t, src) {
		if err := dst.Put(key, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func storeContents(t *testing.T, st *MemStore) map[string]string {
	t.Helper()
	keys, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(keys))
	for _, key := range keys {
		data, err := st.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = string(data)
	}
	return out
}

// registryState renders everything a replay decides: per model its
// listing (kind, task, version count, live version, deploy options),
// which version numbers are holes, and the deployment generation.
func registryState(t *testing.T, s *Service) []string {
	t.Helper()
	var out []string
	for _, info := range s.Models() {
		e, err := s.entry(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		var holes []int
		for v := 1; v <= len(e.versions); v++ {
			if e.version(v) == nil {
				holes = append(holes, v)
			}
		}
		gen := e.gen
		e.mu.Unlock()
		out = append(out, fmt.Sprintf("%+v holes=%v gen=%d", info, holes, gen))
	}
	return out
}
