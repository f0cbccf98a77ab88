package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchTestModels builds one small model per kind with deterministic
// weights.
func batchTestModels() map[string]BatchModel {
	return map[string]BatchModel{
		"cnn-class": NewCNN(CNNConfig{
			Vocab: 60, Embed: 8, Widths: []int{2, 3}, Kernels: 4,
			Dropout: 0.5, Outputs: 5,
		}, rand.New(rand.NewSource(1))),
		"lstm-class": NewLSTM(LSTMConfig{
			Vocab: 60, Embed: 8, Hidden: 12, Layers: 2, Outputs: 5,
		}, rand.New(rand.NewSource(2))),
		"lstm-reg": NewLSTM(LSTMConfig{
			Vocab: 60, Embed: 8, Hidden: 12, Layers: 3, Outputs: 1,
		}, rand.New(rand.NewSource(3))),
	}
}

// batchTestIDs is a mixed-length batch: ragged lengths, an empty
// sequence, sequences shorter than the widest conv window, repeats,
// and out-of-vocabulary ids.
func batchTestIDs() [][]int {
	return [][]int{
		{4, 9, 1, 33, 7, 2, 15},
		{},
		{59},
		{1, 2},
		{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
		{-3, 999, 5},
		{4, 9, 1, 33, 7, 2, 15},
		{8, 0, 44, 3, 21},
	}
}

// TestForwardBatchBitIdentical verifies the central contract of the
// batched refactor: for every model kind, each row of ForwardBatch over
// a mixed-length batch is bit-identical (not merely close) to the
// scalar Forward on that example, and repeated scalar calls after the
// batched call still agree (batch scratch does not disturb scalar
// scratch).
func TestForwardBatchBitIdentical(t *testing.T) {
	ids := batchTestIDs()
	for name, m := range batchTestModels() {
		t.Run(name, func(t *testing.T) {
			// Scalar references first (Forward reuses scratch, so copy).
			want := make([][]float64, len(ids))
			for r, seq := range ids {
				y, _ := m.Forward(seq, false, nil)
				want[r] = append([]float64(nil), y...)
			}
			out, outDim := m.ForwardBatch(ids)
			if len(out) != len(ids)*outDim {
				t.Fatalf("out len = %d, want %d", len(out), len(ids)*outDim)
			}
			for r := range ids {
				row := out[r*outDim : (r+1)*outDim]
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(want[r][j]) {
						t.Fatalf("row %d col %d: batched %v != scalar %v", r, j, v, want[r][j])
					}
				}
			}
			// Scalar path unchanged after a batched call.
			for r, seq := range ids {
				y, _ := m.Forward(seq, false, nil)
				for j, v := range y {
					if math.Float64bits(v) != math.Float64bits(want[r][j]) {
						t.Fatalf("row %d: scalar output changed after ForwardBatch", r)
					}
				}
			}
		})
	}
}

// TestForwardBatchSingleAndEmpty pins the degenerate batch sizes: n=1
// delegates to the scalar path bit-identically and n=0 returns an
// empty matrix.
func TestForwardBatchSingleAndEmpty(t *testing.T) {
	for name, m := range batchTestModels() {
		t.Run(name, func(t *testing.T) {
			seq := []int{5, 1, 12, 3}
			y, _ := m.Forward(seq, false, nil)
			want := append([]float64(nil), y...)
			out, outDim := m.ForwardBatch([][]int{seq})
			if len(out) != outDim {
				t.Fatalf("n=1 out len = %d, want %d", len(out), outDim)
			}
			for j, v := range out {
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Fatalf("n=1 col %d: %v != %v", j, v, want[j])
				}
			}
			if out, _ := m.ForwardBatch(nil); len(out) != 0 {
				t.Fatalf("n=0 out len = %d, want 0", len(out))
			}
		})
	}
}

// TestForwardBatchReplicasConcurrent runs batched inference on
// CloneShared replicas from concurrent goroutines (the serving
// topology) and checks every replica agrees with the base model
// bit-for-bit. Run under -race this also proves the batch scratch is
// replica-private.
func TestForwardBatchReplicasConcurrent(t *testing.T) {
	ids := batchTestIDs()
	for name, m := range batchTestModels() {
		t.Run(name, func(t *testing.T) {
			want, outDim := m.ForwardBatch(ids)
			wantCopy := append([]float64(nil), want...)
			const workers = 4
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				rep := m.(ParallelModel).CloneShared().(BatchModel)
				go func() {
					for iter := 0; iter < 50; iter++ {
						out, _ := rep.ForwardBatch(ids)
						for i, v := range out {
							if math.Float64bits(v) != math.Float64bits(wantCopy[i]) {
								errc <- errMismatch(i)
								return
							}
						}
					}
					errc <- nil
				}()
			}
			for w := 0; w < workers; w++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			_ = outDim
		})
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "replica batched output mismatch" }

// TestForwardBatchAllocFree guards the 0 allocs/op contract for warm
// batched inference at a fixed batch width.
func TestForwardBatchAllocFree(t *testing.T) {
	ids := batchTestIDs()
	for name, m := range batchTestModels() {
		t.Run(name, func(t *testing.T) {
			m.ForwardBatch(ids) // warm the scratch
			if allocs := testing.AllocsPerRun(50, func() { m.ForwardBatch(ids) }); allocs != 0 {
				t.Errorf("ForwardBatch allocs/op = %v, want 0", allocs)
			}
		})
	}
}

// BenchmarkLSTMRaggedBatch16 times one ragged 16-statement batch — the
// serving shape: core.DefaultConfig's char-LSTM sizes, lengths drawn
// from 50–160 — through ForwardBatch ("batch") and through 16 scalar
// Forward calls ("scalar"), both as ns/stmt. Batching must not cost
// more per statement than not batching.
func BenchmarkLSTMRaggedBatch16(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	m := NewLSTM(LSTMConfig{Vocab: 100, Embed: 16, Hidden: 32, Layers: 3, Outputs: 3}, rng)
	ids := make([][]int, 16)
	for r := range ids {
		ids[r] = make([]int, 50+rng.Intn(111))
		for i := range ids[r] {
			ids[r][i] = rng.Intn(100)
		}
	}
	perStmt := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/stmt")
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ForwardBatch(ids)
		}
		perStmt(b)
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, seq := range ids {
				m.Forward(seq, false, nil)
			}
		}
		perStmt(b)
	})
}

// frozenCNN returns a frozen replica of m on the layout asked for,
// whatever Freeze itself would choose for m: its tables, or the
// transposed banks and the GEMM.
func frozenCNN(m *CNNModel, tabled bool) *CNNModel {
	rep := m.CloneShared().(*CNNModel)
	rep.freeze(tabled)
	return rep
}

// BenchmarkCNNForwardSingle times one statement through the CNN at its
// serving shape (core.DefaultConfig: Embed 16, widths 3/4/5, 32
// kernels): the word model for a short, a typical and a long statement,
// and the character model (76 characters) at 137 tokens, the mean
// statement of the benchmark harness's pool. Three legs: the trained
// model as it is ("unfrozen": every call re-derives the kernel banks'
// layouts), a frozen replica kept on the GEMM ("frozen-gemm": what
// Freeze leaves a model it does not table) and a Freeze()d replica
// ("frozen": what a server runs — both vocabularies are tabled), so
// frozen-gemm ÷ frozen is what the tables buy. Every leg must report 0
// allocs/op.
func BenchmarkCNNForwardSingle(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range []struct {
		name   string
		vocab  int
		tokens []int
	}{{"word", 500, []int{8, 20, 40}}, {"char", 76, []int{137}}} {
		m := NewCNN(CNNConfig{Vocab: sh.vocab, Embed: 16, Widths: []int{3, 4, 5}, Kernels: 32, Dropout: 0.5, Outputs: 1}, rng)
		frozen := frozenClone(m).(*CNNModel)
		if !frozen.tabled {
			b.Fatalf("%s: Freeze did not table a vocabulary of %d", sh.name, sh.vocab)
		}
		legs := []struct {
			name  string
			model Model
		}{{"unfrozen", m}, {"frozen-gemm", frozenCNN(m, false)}, {"frozen", frozen}}
		for _, tokens := range sh.tokens {
			ids := make([]int, tokens)
			for i := range ids {
				ids[i] = rng.Intn(sh.vocab)
			}
			for _, leg := range legs {
				b.Run(fmt.Sprintf("%s/tokens=%d/%s", sh.name, tokens, leg.name), func(b *testing.B) {
					b.ReportAllocs()
					leg.model.Forward(ids, false, nil) // warm the scratch
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						leg.model.Forward(ids, false, nil)
					}
				})
			}
		}
	}
}

// BenchmarkCNNTableSweep is the measurement behind cnnTableBudget: the
// frozen forward pass on the GEMM ("gemm") and on the tables ("table")
// as the vocabulary, and with it the table (12 288 B per token at this
// shape), grows past the caches. Each op runs 4 096 distinct 24-token
// statements once — so nothing is hot but what the id distribution
// makes hot — with ids drawn uniformly (no hot set: the table's worst
// case) or Zipf(1.1) like words; ns/stmt is the figure to compare. The
// GEMM's working set is the embedding rows, 128 B per token, so its leg
// barely moves; the table's leg is the question.
func BenchmarkCNNTableSweep(b *testing.B) {
	const stmts, tokens = 4096, 24
	for _, vocab := range []int{76, 484, 2000, 8000} {
		rng := rand.New(rand.NewSource(18))
		m := NewCNN(CNNConfig{Vocab: vocab, Embed: 16, Widths: []int{3, 4, 5}, Kernels: 32, Dropout: 0.5, Outputs: 1}, rng)
		legs := []struct {
			name  string
			model *CNNModel
		}{{"gemm", frozenCNN(m, false)}, {"table", frozenCNN(m, true)}}
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(vocab-1))
		for _, dist := range []struct {
			name string
			draw func() int
		}{{"uniform", func() int { return rng.Intn(vocab) }}, {"zipf", func() int { return int(zipf.Uint64()) }}} {
			ids := make([][]int, stmts)
			for r := range ids {
				ids[r] = make([]int, tokens)
				for i := range ids[r] {
					ids[r][i] = dist.draw()
				}
			}
			for _, leg := range legs {
				b.Run(fmt.Sprintf("vocab=%d/%s/%s", vocab, dist.name, leg.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for _, seq := range ids {
							leg.model.Forward(seq, false, nil)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stmts), "ns/stmt")
				})
			}
		}
	}
}
