package core

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/workload"
)

// equivalenceItems builds a small fixed workload for trainer tests.
func equivalenceItems(t *testing.T) []workload.Item {
	t.Helper()
	split := sdssSplit(t, 120)
	items := split.Train
	if len(items) > 90 {
		items = items[:90]
	}
	return items
}

func trainParams(t *testing.T, name string, workers int, dropout float64) []*nn.Param {
	t.Helper()
	items := equivalenceItems(t)
	cfg := TinyConfig()
	cfg.Epochs = 2
	cfg.Workers = workers
	cfg.Dropout = dropout
	m, err := Train(name, ErrorClassification, items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.neural.model.Params()
}

func maxParamDiff(a, b []*nn.Param) float64 {
	worst := 0.0
	for i := range a {
		for k := range a[i].W {
			if d := math.Abs(a[i].W[k] - b[i].W[k]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestParallelSequentialEquivalence checks the engine's core guarantee:
// with a fixed seed, Config{Workers: N} produces the same final
// weights as Workers: 1 within 1e-9. Dropout is disabled for the CNN
// because the sequential path intentionally preserves the legacy
// shared-RNG dropout stream (see trainLoop), which the parallel path
// replaces with per-example RNGs.
func TestParallelSequentialEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dropout float64
	}{
		{"clstm", 0.5}, // LSTMs take no dropout: any value is inert
		{"ccnn", 0},
	} {
		seq := trainParams(t, tc.name, 1, tc.dropout)
		par := trainParams(t, tc.name, 3, tc.dropout)
		if d := maxParamDiff(seq, par); d > 1e-9 {
			t.Fatalf("%s: workers=3 diverges from workers=1 by %v", tc.name, d)
		}
	}
}

// TestParallelDeterminism checks that a fixed worker count is fully
// deterministic, including CNN dropout (per-example RNGs).
func TestParallelDeterminism(t *testing.T) {
	a := trainParams(t, "ccnn", 4, 0.5)
	b := trainParams(t, "ccnn", 4, 0.5)
	if d := maxParamDiff(a, b); d != 0 {
		t.Fatalf("workers=4 not deterministic: diff %v", d)
	}
}

// TestParallelDropoutWorkerCountInvariance checks that dropout masks do
// not depend on the worker count: with dropout active, 2 and 4 workers
// differ only by gradient summation order.
func TestParallelDropoutWorkerCountInvariance(t *testing.T) {
	a := trainParams(t, "ccnn", 2, 0.5)
	b := trainParams(t, "ccnn", 4, 0.5)
	if d := maxParamDiff(a, b); d > 1e-9 {
		t.Fatalf("workers=2 vs workers=4 diverge by %v", d)
	}
}

// TestSequentialPathUnchanged pins the Workers=1 path to the legacy
// behavior: two runs with the same seed are bit-identical.
func TestSequentialPathUnchanged(t *testing.T) {
	a := trainParams(t, "ccnn", 1, 0.5)
	b := trainParams(t, "ccnn", 1, 0.5)
	if d := maxParamDiff(a, b); d != 0 {
		t.Fatalf("sequential path not deterministic: diff %v", d)
	}
}

// TestParallelFineTune exercises the parallel path through FineTune
// (transfer learning) and the multi-task trainer; run under -race in CI.
func TestParallelFineTune(t *testing.T) {
	items := equivalenceItems(t)
	cfg := TinyConfig()
	cfg.Workers = 4
	m, err := Train("ccnn", CPUTimePrediction, items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FineTune(m, items, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainMultiTask(items, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAutoWorkers checks the <= 0 auto configuration trains without
// error and stays deterministic on a single-CPU machine.
func TestAutoWorkers(t *testing.T) {
	items := equivalenceItems(t)
	cfg := TinyConfig()
	cfg.Workers = -1
	if _, err := Train("clstm", ErrorClassification, items, cfg); err != nil {
		t.Fatal(err)
	}
}
