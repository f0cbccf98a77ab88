package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/workload"
)

func snapshotTestSplit() workload.Split {
	w := synth.NewSDSS(synth.SDSSConfig{Sessions: 300, HitsPerSessionMax: 2, Seed: 5}).Generate()
	return workload.RandomSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(5)))
}

// TestSnapshotImmuneToFineTune checks the registry invariant: a
// snapshot keeps predicting bit-identically after the original model
// is fine-tuned (no weight aliasing between the two).
func TestSnapshotImmuneToFineTune(t *testing.T) {
	split := snapshotTestSplit()
	cfg := TinyConfig()
	m, err := Train("ccnn", ErrorClassification, split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stmts := make([]string, 0, 20)
	for _, item := range split.Test[:20] {
		stmts = append(stmts, item.Statement)
	}

	snap := m.Snapshot()
	want := make([][]float64, len(stmts))
	for i, s := range stmts {
		want[i] = snap.Probs(s)
	}

	if _, err := FineTune(m, split.Valid, cfg); err != nil {
		t.Fatal(err)
	}

	changed := false
	for i, s := range stmts {
		got := snap.Probs(s)
		for c := range got {
			if got[c] != want[i][c] {
				t.Fatalf("snapshot drifted after FineTune of original (stmt %d)", i)
			}
		}
		tuned := m.Probs(s)
		for c := range tuned {
			if tuned[c] != want[i][c] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("fine-tuning did not move the original model at all (test is vacuous)")
	}
}

// TestSnapshotBitIdentical checks a snapshot predicts exactly like its
// source at snapshot time, for neural and non-neural models alike.
func TestSnapshotBitIdentical(t *testing.T) {
	split := snapshotTestSplit()
	cfg := TinyConfig()
	for _, name := range []string{"mfreq", "ctfidf", "wlstm"} {
		m, err := Train(name, ErrorClassification, split.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		for _, item := range split.Test[:15] {
			a, b := m.Probs(item.Statement), snap.Probs(item.Statement)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("%s: snapshot differs from source", name)
				}
			}
		}
	}
	// Regression path.
	m, err := Train("ccnn", CPUTimePrediction, split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, item := range split.Test[:15] {
		if m.PredictLog(item.Statement) != snap.PredictLog(item.Statement) {
			t.Fatal("regression snapshot differs from source")
		}
	}
	if snap.LogMin != m.LogMin || snap.V != m.V || snap.P != m.P {
		t.Fatal("snapshot metadata not copied")
	}
}

// TestSnapshotVersionMetadata checks Version is carried by value: a
// registry can stamp a snapshot without touching the source model.
func TestSnapshotVersionMetadata(t *testing.T) {
	split := snapshotTestSplit()
	m, err := Train("mfreq", ErrorClassification, split.Train, TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	snap.Version = 7
	if m.Version != 0 {
		t.Fatalf("stamping a snapshot mutated the source (Version=%d)", m.Version)
	}
	if snap2 := snap.Snapshot(); snap2.Version != 7 {
		t.Fatalf("re-snapshot dropped Version: %d", snap2.Version)
	}
}

// TestFineTuneRefusesReplica checks a Replicate copy is inference-only:
// FineTune returns an error for it and leaves the weights it shares
// with the original untouched, while a Snapshot — of the original or of
// the replica — is still an ordinary model that fine-tunes.
func TestFineTuneRefusesReplica(t *testing.T) {
	split := snapshotTestSplit()
	cfg := TinyConfig()
	for _, name := range []string{"ccnn", "clstm"} {
		m, err := Train(name, ErrorClassification, split.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stmts := workload.Statements(split.Test[:20])
		want := make([][]float64, len(stmts))
		for i, s := range stmts {
			want[i] = m.Probs(s)
		}

		rep := m.Replicate()
		if _, err := FineTune(rep, split.Valid, cfg); err == nil {
			t.Fatalf("%s: FineTune accepted a Replicate copy", name)
		}
		for i, s := range stmts {
			got, again := m.Probs(s), rep.Probs(s)
			for c := range got {
				if math.Float64bits(got[c]) != math.Float64bits(want[i][c]) ||
					math.Float64bits(again[c]) != math.Float64bits(want[i][c]) {
					t.Fatalf("%s: refused FineTune moved the shared weights (stmt %d)", name, i)
				}
			}
		}

		for from, snap := range map[string]*Model{"original": m.Snapshot(), "replica": rep.Snapshot()} {
			if _, err := FineTune(snap, split.Valid, cfg); err != nil {
				t.Fatalf("%s: FineTune of a Snapshot of the %s: %v", name, from, err)
			}
			changed := false
			for i, s := range stmts {
				for c, p := range snap.Probs(s) {
					changed = changed || p != want[i][c]
				}
			}
			if !changed {
				t.Fatalf("%s: fine-tuning a Snapshot of the %s moved nothing", name, from)
			}
		}
	}
}
