package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchTestModels builds one small model per kind with deterministic
// weights.
func batchTestModels() map[string]Model {
	return map[string]Model{
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
				rep := m.CloneShared()
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
// batched inference at a fixed batch: the mixed one, one whose lanes
// all share a prefix, and a branching one whose blocks grow with depth
// (1, 2, 4 and 8 nodes under 8 lanes — the LSTM's scratch is sized by
// the widest block, which is neither the first nor the lane count).
func TestForwardBatchAllocFree(t *testing.T) {
	shared := make([][]int, 6)
	for r := range shared {
		shared[r] = append([]int{4, 9, 1, 33, 7, 2, 15}, r, r+1)
	}
	var growing [][]int
	for r := 0; r < 8; r++ {
		growing = append(growing, []int{7, 10 + r/4, 20 + r/2, 30 + r})
	}
	for name, m := range batchTestModels() {
		t.Run(name, func(t *testing.T) {
			for _, ids := range [][][]int{batchTestIDs(), shared, growing} {
				m.ForwardBatch(ids) // warm the scratch
				if allocs := testing.AllocsPerRun(50, func() { m.ForwardBatch(ids) }); allocs != 0 {
					t.Errorf("ForwardBatch allocs/op = %v, want 0", allocs)
				}
			}
		})
	}
}

// lstmLayouts returns m and a frozen replica of it on either layout:
// the first layer's table, and every layer on the GEMM.
func lstmLayouts(m *LSTMModel) map[string]*LSTMModel {
	tabled, gemm := m.CloneShared().(*LSTMModel), m.CloneShared().(*LSTMModel)
	tabled.freeze(true)
	gemm.freeze(false)
	return map[string]*LSTMModel{"unfrozen": m, "frozen-tabled": tabled, "frozen-gemm": gemm}
}

// checkBatchMatchesScalar fails unless every row of m.ForwardBatch(ids)
// equals ref.Forward on that example bit for bit.
func checkBatchMatchesScalar(t *testing.T, ref Model, m Model, ids [][]int) {
	t.Helper()
	out, outDim := m.ForwardBatch(ids)
	if len(out) != len(ids)*outDim {
		t.Fatalf("out len = %d, want %d", len(out), len(ids)*outDim)
	}
	for r, seq := range ids {
		want, _ := ref.Forward(seq, false, nil)
		if got := out[r*outDim : (r+1)*outDim]; !sameBits(got, want) {
			t.Fatalf("row %d %v: batched %v != scalar %v", r, seq, got, want)
		}
	}
}

// TestForwardBatchSharedPrefixes runs the shapes a batch's prefix tree
// takes that batchTestIDs does not have (it holds one exact duplicate
// and no branch) through the 2- and the 3-layer LSTM, unfrozen and
// frozen on both layouts: every row must equal the trained model's
// scalar Forward bit for bit, in request order whatever order the
// lanes were laid out in.
func TestForwardBatchSharedPrefixes(t *testing.T) {
	same := make([][]int, 16)
	for r := range same {
		same[r] = []int{4, 9, 1, 33, 7, 2, 15}
	}
	mixed := [][]int{
		{5, 6, 7, 8, 9}, {5, 6, 7}, {5, 6, 7, 8, 9, 10, 11}, // a proper prefix of another and of a third
		{1, 2, 3, 4}, {2, 2, 3, 4}, // part at step 0
		{5, 1, 7, 8},                                                  // parts from the first three at step 1
		{20, 21, 22, 23, 1}, {20, 21, 22, 23, 2}, {20, 21, 22, 23, 1}, // part at the last step
	}
	type batch struct {
		name  string
		ids   [][]int
		nodes int // distinct prefixes: what the batch must cost
	}
	batches := []batch{
		{"all-identical", same, 7},
		{"prefixes-and-branches", mixed, 24},
		// Two empty sequences run as the pad token: one node with {0}.
		{"empty-and-pad", [][]int{{}, {0}, {}, {0, 3}}, 2},
		// −3 and 999 both read as token 0, at the same position.
		{"clamped", [][]int{{4, -3, 5}, {4, 999, 5}, {4, 0, 5}, {4, 59, 5}}, 5},
	}
	for p, perm := range [][]int{{8, 7, 6, 5, 4, 3, 2, 1, 0}, {4, 0, 8, 2, 6, 1, 5, 3, 7}, {2, 1, 0, 5, 4, 3, 8, 7, 6}} {
		ids := make([][]int, len(mixed))
		for i, j := range perm {
			ids[i] = mixed[j]
		}
		batches = append(batches, batch{fmt.Sprintf("permutation-%d", p), ids, 24})
	}
	for _, name := range []string{"lstm-class", "lstm-reg"} {
		ref := batchTestModels()[name].(*LSTMModel)
		for layout, m := range lstmLayouts(ref) {
			for _, b := range batches {
				t.Run(name+"/"+layout+"/"+b.name, func(t *testing.T) {
					checkBatchMatchesScalar(t, ref, m, b.ids)
					if nodes := len(m.bcache.trie.tok); nodes != b.nodes {
						t.Errorf("batch ran as %d nodes, want %d", nodes, b.nodes)
					}
				})
			}
		}
	}
}

// FuzzLSTMBatchTrie turns the fuzz bytes into up to 32 sequences over
// three tokens, so that shared prefixes, duplicates and prefixes of one
// another are the rule, and checks every row of ForwardBatch against the
// trained model's scalar Forward bit for bit, on the model itself and on
// frozen replicas of both layouts. A byte is a token (0, 1, 2), the end
// of a sequence (3: two in a row make an empty one) or an id outside
// the vocabulary (4: reads as token 0).
func FuzzLSTMBatchTrie(f *testing.F) {
	ref := NewLSTM(LSTMConfig{Vocab: 3, Embed: 4, Hidden: 5, Layers: 2, Outputs: 2}, rand.New(rand.NewSource(21)))
	legs := lstmLayouts(ref)
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 3, 0, 1, 2, 2})
	f.Add([]byte{3, 3, 0, 3, 4, 3, 1})
	f.Add([]byte{1, 3, 1, 1, 3, 1, 1, 1, 3, 2, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := [][]int{nil}
		for _, b := range data {
			switch v := int(b % 5); {
			case v < 3:
				ids[len(ids)-1] = append(ids[len(ids)-1], v)
			case v == 4:
				ids[len(ids)-1] = append(ids[len(ids)-1], 9)
			case len(ids) < 32:
				ids = append(ids, nil)
			}
		}
		for _, m := range legs {
			checkBatchMatchesScalar(t, ref, m, ids)
		}
	})
}

// BenchmarkLSTMRaggedBatch16 times one ragged 16-statement batch — the
// serving shape: core.DefaultConfig's char-LSTM sizes, lengths drawn
// from 50–160 — through ForwardBatch ("batch") and through 16 scalar
// Forward calls ("scalar"), both as ns/stmt. Batching must not cost
// more per statement than not batching. The tokens of those 16 are
// random, so they share nothing past a step or two: "batch" is the
// guard on what the trie's bookkeeping costs a batch it cannot help.
// "templated" is the batch it is for — 16 statements from 4 templates,
// each a shared head of 40–120 tokens and four tails of 10–40 — and
// also reports trie nodes per lane-step, the share of the work left.
func BenchmarkLSTMRaggedBatch16(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	m := NewLSTM(LSTMConfig{Vocab: 100, Embed: 16, Hidden: 32, Layers: 3, Outputs: 3}, rng)
	seq := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(100)
		}
		return ids
	}
	ids := make([][]int, 16)
	for r := range ids {
		ids[r] = seq(50 + rng.Intn(111))
	}
	var templated [][]int
	for len(templated) < 16 {
		head := seq(40 + rng.Intn(81))
		for tail := 0; tail < 4; tail++ {
			templated = append(templated, append(head[:len(head):len(head)], seq(10+rng.Intn(31))...))
		}
	}
	rng.Shuffle(len(templated), func(i, j int) { templated[i], templated[j] = templated[j], templated[i] })
	perStmt := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/stmt")
	}
	for _, leg := range []struct {
		name string
		ids  [][]int
	}{{"batch", ids}, {"templated", templated}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(leg.ids)
			}
			perStmt(b)
			steps := 0
			for _, s := range leg.ids {
				steps += len(s)
			}
			b.ReportMetric(float64(len(m.bcache.trie.tok))/float64(steps), "nodes/lane-step")
		})
	}
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

// BenchmarkCNNTableSweep is the measurement behind tableBudget: the
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
