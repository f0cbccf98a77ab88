package core

import (
	"math"
	"testing"
)

// batchStmts is a mixed bag of statements: repeats, an empty string,
// and lengths spanning short to truncation-length.
func batchStmts() []string {
	return []string{
		"SELECT ra, dec FROM photoobj WHERE objid = 1237648",
		"",
		"SELECT TOP 10 * FROM specobj s JOIN photoobj p ON s.bestobjid = p.objid WHERE s.z > 0.1 AND p.r < 17.7 ORDER BY s.z DESC",
		"select 1",
		"SELECT ra, dec FROM photoobj WHERE objid = 1237648",
		"SELECT count(*) FROM galaxy",
	}
}

// TestBatchPredictBitIdentical verifies the core batch API against the
// scalar path for every model kind: neural models (fused batch
// forward) and non-neural models (scalar fallback) must both agree
// bit-for-bit, per the repo's pooled-equals-direct determinism
// contract.
func TestBatchPredictBitIdentical(t *testing.T) {
	split := sdssSplit(t, 60)
	stmts := batchStmts()
	cfg := TinyConfig()

	for _, name := range []string{"mfreq", "ctfidf", "ccnn", "wlstm"} {
		t.Run(name+"/class", func(t *testing.T) {
			m, err := Train(name, ErrorClassification, split.Train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]float64
			wantCls := make([]int, len(stmts))
			for i, stmt := range stmts {
				want = append(want, m.Probs(stmt))
				wantCls[i] = m.PredictClass(stmt)
			}
			got := m.ProbsBatchInto(stmts, nil)
			if len(got) != len(stmts) {
				t.Fatalf("ProbsBatchInto rows = %d, want %d", len(got), len(stmts))
			}
			for i := range stmts {
				for j, v := range got[i] {
					if math.Float64bits(v) != math.Float64bits(want[i][j]) {
						t.Fatalf("stmt %d class %d: batch %v != scalar %v", i, j, v, want[i][j])
					}
				}
			}
			for i := range stmts {
				if c := argmax(got[i]); c != wantCls[i] {
					t.Fatalf("stmt %d: batch class %d != scalar %d", i, c, wantCls[i])
				}
			}
			if m.PredictLogBatchInto(stmts, nil) != nil {
				t.Fatal("PredictLogBatchInto must be nil for classification")
			}
		})
	}

	for _, name := range []string{"median", "wtfidf", "clstm"} {
		t.Run(name+"/reg", func(t *testing.T) {
			m, err := Train(name, CPUTimePrediction, split.Train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(stmts))
			for i, stmt := range stmts {
				want[i] = m.PredictLog(stmt)
			}
			got := m.PredictLogBatchInto(stmts, nil)
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("stmt %d: batch %v != scalar %v", i, v, want[i])
				}
			}
			if m.ProbsBatchInto(stmts, nil) != nil {
				t.Fatal("ProbsBatchInto must be nil for regression")
			}
		})
	}
}

// TestBatchPredictReplicas checks the batch API on Replicate copies
// (the serving topology): per-replica batch scratch, outputs
// bit-identical to the base model.
func TestBatchPredictReplicas(t *testing.T) {
	split := sdssSplit(t, 60)
	stmts := batchStmts()
	m, err := Train("clstm", ErrorClassification, split.Train, TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := m.ProbsBatchInto(stmts, nil)
	rep := m.Replicate()
	got := rep.ProbsBatchInto(stmts, nil)
	for i := range stmts {
		for j, v := range got[i] {
			if math.Float64bits(v) != math.Float64bits(want[i][j]) {
				t.Fatalf("replica stmt %d class %d: %v != %v", i, j, v, want[i][j])
			}
		}
	}
}

// TestBatchPredictAllocFree guards the warm-path contract: batched
// neural prediction at a fixed width with caller-owned buffers is
// 0 allocs/op.
func TestBatchPredictAllocFree(t *testing.T) {
	split := sdssSplit(t, 60)
	stmts := batchStmts()
	for _, name := range []string{"ccnn", "clstm"} {
		m, err := Train(name, ErrorClassification, split.Train, TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		probs := m.ProbsBatchInto(stmts, nil) // warm scratch + rows
		if allocs := testing.AllocsPerRun(50, func() {
			probs = m.ProbsBatchInto(stmts, probs)
		}); allocs != 0 {
			t.Errorf("%s: batched predict allocs/op = %v, want 0", name, allocs)
		}
	}
}
