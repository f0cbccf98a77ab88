package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/f64"
)

// frozenCase is one architecture TestFrozenMatchesUnfrozen freezes.
// tabled says which side of Freeze's one branch its replica must land
// on, so the test cannot pass through the other unnoticed; forced cases
// are put there by freeze(tabled) instead, for a layout Freeze would
// not pick at a size a test can afford.
type frozenCase struct {
	name   string
	model  Model
	tabled bool
	forced bool
}

// frozen returns a frozen CloneShared replica of the case's model.
func (tc frozenCase) frozen() Model {
	if !tc.forced {
		return frozenClone(tc.model)
	}
	rep := tc.model.CloneShared()
	rep.(interface{ freeze(tabled bool) }).freeze(tc.tabled)
	return rep
}

// frozenTestModels builds the two served architectures with random
// weights — the paper's three kernel widths and its three LSTM layers —
// and the CNN at every shape that decides how its frozen replica runs:
// embeddings of one, two and four 4-term blocks per token with kernel
// counts that are whole 32- and 4-column tiles, both, or leave a
// column or two to the Go loop (tabled); an embedding no block divides
// and a vocabulary whose tables exceed tableBudget (not tabled). The
// LSTM comes as Freeze leaves it at a served size (first layer tabled),
// with the same weights kept on the GEMM, and over a vocabulary whose
// table exceeds the budget. Biases are non-zero: a window's sum, and a
// table row, starts from them.
func frozenTestModels() []frozenCase {
	cnn := func(vocab, embed, kernels int) *CNNModel {
		rng := rand.New(rand.NewSource(11))
		m := NewCNN(CNNConfig{
			Vocab: vocab, Embed: embed, Widths: []int{3, 4, 5}, Kernels: kernels,
			Dropout: 0.5, Outputs: 4,
		}, rng)
		for _, conv := range m.Convs {
			for k := range conv.B.W {
				conv.B.W[k] = rng.NormFloat64() / 4
			}
		}
		return m
	}
	lstm := func(vocab, embed int) *LSTMModel {
		rng := rand.New(rand.NewSource(12))
		m := NewLSTM(LSTMConfig{Vocab: vocab, Embed: embed, Hidden: 12, Layers: 3, Outputs: 1}, rng)
		for _, l := range m.Layers {
			for i := range l.B.W {
				l.B.W[i] += rng.NormFloat64() / 4
			}
		}
		return m
	}
	return []frozenCase{
		{name: "cnn", model: cnn(60, 8, 6), tabled: true},
		{name: "cnn-embed=4-kernels=8", model: cnn(76, 4, 8), tabled: true},
		{name: "cnn-embed=8-kernels=36", model: cnn(76, 8, 36), tabled: true},
		{name: "cnn-embed=16-kernels=32", model: cnn(76, 16, 32), tabled: true}, // core.DefaultConfig's ccnn
		{name: "cnn-embed=16-kernels=6", model: cnn(76, 16, 6), tabled: true},
		{name: "cnn-embed=6", model: cnn(76, 6, 8)},
		{name: "cnn-over-budget", model: cnn(700, 16, 32)}, // 700 × 12 288 B > 8 MiB
		{name: "lstm", model: lstm(60, 8), tabled: true},
		{name: "lstm-gemm", model: lstm(60, 8), forced: true},
		{name: "lstm-embed=6", model: lstm(60, 6), tabled: true}, // two input terms past the last block of four
		{name: "lstm-over-budget", model: lstm(22000, 8)},        // 22 000 × 4·12 × 8 B > 8 MiB
	}
}

// frozenTestIDs is a ragged batch of 16 that opens with the edge
// lengths — empty, one token, every length around the three window
// widths — and ends with the longest statement a character model sees.
// Ids −1 and 76 lie outside every test vocabulary and must read as
// token 0.
func frozenTestIDs() [][]int {
	rng := rand.New(rand.NewSource(13))
	seq := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(60)
		}
		return ids
	}
	ids := [][]int{{}, {7}, {3, 59}, {-1, 4, 76}, seq(4), seq(5)}
	for len(ids) < 15 {
		s := seq(3 + rng.Intn(30))
		s[rng.Intn(len(s))] = 76 * rng.Intn(2) // 0 or out of range
		s[rng.Intn(len(s))] = -1
		ids = append(ids, s)
	}
	return append(ids, seq(160))
}

// frozenClone returns a frozen CloneShared replica of m.
func frozenClone(m Model) Model {
	rep := m.CloneShared()
	rep.Freeze()
	return rep
}

// keptLayouts returns the layout every layer of a frozen m derived from
// its weights: the transposed copies, or a tabled bank's table.
func keptLayouts(m Model) [][]float64 {
	var kept [][]float64
	switch m := m.(type) {
	case *CNNModel:
		for _, c := range m.Convs {
			if m.tabled {
				kept = append(kept, c.table)
			} else {
				kept = append(kept, c.wT)
			}
		}
	case *LSTMModel:
		for _, l := range m.Layers {
			if l.table != nil {
				kept = append(kept, l.table, l.whT)
			} else {
				kept = append(kept, l.wxT, l.whT)
			}
		}
	}
	return kept
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// TestFrozenMatchesUnfrozen pins what Freeze promises: a frozen replica
// answers bit for bit like its unfrozen master on Forward and
// ForwardBatch — also the second time round, when it runs on the kept
// layouts — it does not rewrite those layouts, it refuses Backward, and
// a CloneShared of it is an ordinary trainable replica again.
func TestFrozenMatchesUnfrozen(t *testing.T) {
	ids := frozenTestIDs()
	for _, tc := range frozenTestModels() {
		m := tc.model
		t.Run(tc.name, func(t *testing.T) {
			fz := tc.frozen()
			for _, p := range fz.Params() {
				if p.G != nil {
					t.Fatalf("param %s keeps a gradient accumulator after Freeze", p.Name)
				}
			}
			if cnn, ok := fz.(*CNNModel); ok {
				if cnn.tabled != tc.tabled {
					t.Fatalf("frozen replica tabled = %v, want %v", cnn.tabled, tc.tabled)
				}
				for i, conv := range cnn.Convs {
					if (conv.table != nil) != tc.tabled || (conv.wT != nil) == tc.tabled {
						t.Fatalf("bank %d keeps table %v and wT %v: want exactly one, the table %v",
							i, conv.table != nil, conv.wT != nil, tc.tabled)
					}
				}
				if bytes, _ := cnn.tableBytes(); tc.tabled && bytes > tableBudget {
					t.Fatalf("tables take %d bytes, budget %d", bytes, tableBudget)
				}
			}
			if lstm, ok := fz.(*LSTMModel); ok {
				for i, l := range lstm.Layers {
					if want := tc.tabled && i == 0; (l.table != nil) != want || (l.wxT != nil) == want {
						t.Fatalf("layer %d keeps table %v and wxT %v: want exactly one, the table %v",
							i, l.table != nil, l.wxT != nil, want)
					}
				}
				if bytes := 8 * len(lstm.Layers[0].table); bytes > tableBudget {
					t.Fatalf("table takes %d bytes, budget %d", bytes, tableBudget)
				}
			}
			for round := 0; round < 2; round++ {
				for r, seq := range ids {
					y, _ := m.Forward(seq, false, nil)
					want := append([]float64(nil), y...)
					if got, _ := fz.Forward(seq, false, nil); !sameBits(got, want) {
						t.Fatalf("round %d seq %d (len %d): frozen Forward %v != %v", round, r, len(seq), got, want)
					}
				}
				out, _ := m.ForwardBatch(ids)
				want := append([]float64(nil), out...)
				if got, _ := fz.ForwardBatch(ids); !sameBits(got, want) {
					t.Fatalf("round %d: frozen ForwardBatch differs from unfrozen", round)
				}
			}

			// White box: a forward on a frozen replica reads the kept
			// layouts and never rewrites them. (The sentinel corrupts this
			// replica's outputs, so it gets its own.)
			marked := tc.frozen()
			kept := keptLayouts(marked)
			if len(kept) == 0 {
				t.Fatal("no kept layouts found")
			}
			const sentinel = 12345.678
			for _, w := range kept {
				w[0] = sentinel
			}
			marked.Forward(ids[5], false, nil)
			marked.ForwardBatch(ids)
			for i, w := range keptLayouts(marked) {
				if &w[0] != &kept[i][0] || w[0] != sentinel {
					t.Fatalf("layout %d was rebuilt by a forward on a frozen replica", i)
				}
			}

			_, cache := fz.Forward(ids[5], false, nil)
			dout := make([]float64, len(m.Params()[len(m.Params())-1].W))
			dout[0] = 1
			mustPanic(t, "Backward on a frozen replica", func() { fz.Backward(ids[5], cache, dout) })

			// CloneShared of a frozen replica trains like any other replica,
			// and has no table of its own.
			switch clone := fz.CloneShared().(type) {
			case *CNNModel:
				if clone.tabled || clone.Convs[0].table != nil {
					t.Fatal("clone of a frozen replica is tabled")
				}
			case *LSTMModel:
				if clone.Layers[0].table != nil {
					t.Fatal("clone of a frozen replica is tabled")
				}
			}
			grads := func(rep Model) [][]float64 {
				out, cache := rep.Forward(ids[5], true, rand.New(rand.NewSource(14)))
				if len(out) != len(dout) {
					t.Fatalf("out len %d, dout len %d", len(out), len(dout))
				}
				rep.Backward(ids[5], cache, dout)
				var gs [][]float64
				for _, p := range rep.Params() {
					gs = append(gs, p.G)
				}
				return gs
			}
			want := grads(m.CloneShared())
			got := grads(fz.CloneShared())
			nonzero := false
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("param %d: gradient through a clone of a frozen replica differs", i)
				}
				for _, g := range got[i] {
					nonzero = nonzero || g != 0
				}
			}
			if !nonzero {
				t.Fatal("clone of a frozen replica accumulated no gradient")
			}
		})
	}
}

// TestTabulateStoresBlockSums pins what a tabled bank keeps: entry
// (v, j, b, k) is the 4-term block sum of score's GEMM written out in
// Go — components 4b…4b+3 of v's embedding against kernel k's weights
// at offset j — bit for bit, the sign of a zero included: two tokens
// embed to all +0 and all −0, so that entries of either sign occur (the
// table is accumulated into; a +0 prefill would lose every −0).
func TestTabulateStoresBlockSums(t *testing.T) {
	m := NewCNN(CNNConfig{Vocab: 12, Embed: 8, Widths: []int{3, 4, 5}, Kernels: 6, Outputs: 2}, rand.New(rand.NewSource(19)))
	d := m.Emb.D
	for i := 0; i < d; i++ {
		m.Emb.P.W[1*d+i] = 0
		m.Emb.P.W[2*d+i] = math.Copysign(0, -1)
	}
	negZeros := 0
	for _, c := range frozenCNN(m, true).Convs {
		rows, wlen := c.In/4, c.Width*c.In
		if len(c.table) != m.Emb.V*c.Width*rows*c.K {
			t.Fatalf("width %d: table of %d entries", c.Width, len(c.table))
		}
		for i, got := range c.table {
			k, b, j, v := i%c.K, i/c.K%rows, i/c.K/rows%c.Width, i/c.K/rows/c.Width
			e := m.Emb.P.W[v*d+4*b:]
			w := c.W.W[k*wlen+j*c.In+4*b:]
			want := e[0]*w[0] + e[1]*w[1] + e[2]*w[2] + e[3]*w[3]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("width %d token %d offset %d block %d kernel %d: table holds %v, block sum %v", c.Width, v, j, b, k, got, want)
			}
			if got == 0 && math.Signbit(got) {
				negZeros++
			}
		}
	}
	if negZeros == 0 {
		t.Fatal("no −0 entry occurred: the case the prefill exists for went untested")
	}
}

// TestLSTMTabulateStoresGemmRows pins what a tabled first layer keeps:
// row v is the bias with token v's embedding run through the input GEMM
// on top — the bias copied, then one f64.GemmSW row against Wxᵀ — element
// by element and bit for bit, at an Embed that is whole blocks of four
// and at one that leaves two terms to the zero-skipping tail. Two gate
// units have a −0 bias and all-positive weights and two tokens embed to
// all +0 and all −0, so that rows whose −0 survives occur (the row is
// accumulated into a copy of the bias; starting from +0 and adding the
// bias last would lose every one).
func TestLSTMTabulateStoresGemmRows(t *testing.T) {
	for _, embed := range []int{8, 6} {
		m := NewLSTM(LSTMConfig{Vocab: 12, Embed: embed, Hidden: 5, Layers: 2, Outputs: 2}, rand.New(rand.NewSource(20)))
		l := m.Layers[0]
		h4 := 4 * l.H
		negZero := math.Copysign(0, -1)
		for i := 0; i < embed; i++ {
			m.Emb.P.W[1*embed+i] = 0
			m.Emb.P.W[2*embed+i] = negZero
		}
		for _, unit := range []int{3, 11} {
			l.B.W[unit] = negZero
			for i := 0; i < embed; i++ {
				l.Wx.W[unit*embed+i] = math.Abs(l.Wx.W[unit*embed+i])
			}
		}
		wxT := make([]float64, embed*h4)
		f64.Transpose(wxT, l.Wx.W, h4, embed)
		rep := m.CloneShared().(*LSTMModel)
		rep.freeze(true)
		table := rep.Layers[0].table
		if len(table) != m.Emb.V*h4 {
			t.Fatalf("embed %d: table of %d entries, want %d", embed, len(table), m.Emb.V*h4)
		}
		negZeros := 0
		for v := 0; v < m.Emb.V; v++ {
			want := append([]float64(nil), l.B.W...)
			f64.GemmSW(want, h4, m.Emb.P.W[v*embed:], embed, wxT, h4, 1, h4, embed)
			for j, got := range table[v*h4 : (v+1)*h4] {
				if math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("embed %d token %d unit %d: table holds %v, bias; GemmSW gives %v", embed, v, j, got, want[j])
				}
				if got == 0 && math.Signbit(got) {
					negZeros++
				}
			}
		}
		if negZeros == 0 {
			t.Fatalf("embed %d: no −0 entry occurred: the case the bias-first order exists for went untested", embed)
		}
	}
}

// poolKernelOuter is Conv1D.pool as it was before the row-major scan:
// one kernel at a time, down its column of scores. Kept as the
// reference the new scan must equal.
func poolKernelOuter(K int, pooled, scores []float64, positions int, argmax []int, pre []float64) {
	for k := 0; k < K; k++ {
		best := 0.0
		bestPos := -1
		for j := 0; j < positions; j++ {
			if sum := scores[j*K+k]; sum > best {
				best = sum
				bestPos = j
			}
		}
		pooled[k] = best
		if argmax != nil {
			argmax[k] = bestPos
			pre[k] = best
		}
	}
}

// TestPoolMatchesKernelOuterScan is the differential for the pool
// rewrite: pooled, argmax and pre equal the kernel-outer reference on
// random scores salted with exact ties across positions, all-negative
// columns, ±0, NaN and ±Inf, for 1…40 positions, with and without
// argmax tracking.
func TestPoolMatchesKernelOuterScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -1.5}
	for _, K := range []int{1, 5, 32} {
		c := &Conv1D{K: K}
		for positions := 1; positions <= 40; positions++ {
			for trial := 0; trial < 8; trial++ {
				scores := make([]float64, positions*K)
				for i := range scores {
					scores[i] = rng.NormFloat64()
				}
				for k := 0; k < K; k++ {
					switch rng.Intn(4) {
					case 0: // all-negative column
						for j := 0; j < positions; j++ {
							scores[j*K+k] = -math.Abs(scores[j*K+k]) - 1
						}
					case 1: // the column's maximum, repeated at random positions
						for n := 0; n < 3; n++ {
							scores[rng.Intn(positions)*K+k] = 7.25
						}
					case 2: // special values
						for n := 0; n < 3; n++ {
							scores[rng.Intn(positions)*K+k] = special[rng.Intn(len(special))]
						}
					}
				}
				wantP, wantPre, wantArg := make([]float64, K), make([]float64, K), make([]int, K)
				poolKernelOuter(K, wantP, scores, positions, wantArg, wantPre)
				// Dirty outputs: pool must overwrite, not accumulate.
				gotP, gotPre, gotArg := make([]float64, K), make([]float64, K), make([]int, K)
				for k := 0; k < K; k++ {
					gotP[k], gotPre[k], gotArg[k] = 99, 99, 99
				}
				c.pool(gotP, scores, positions, gotArg, gotPre)
				if !sameBits(gotP, wantP) || !sameBits(gotPre, wantPre) {
					t.Fatalf("K=%d positions=%d: pooled/pre %v/%v, want %v/%v", K, positions, gotP, gotPre, wantP, wantPre)
				}
				for k := range wantArg {
					if gotArg[k] != wantArg[k] {
						t.Fatalf("K=%d positions=%d kernel %d: argmax %d, want %d", K, positions, k, gotArg[k], wantArg[k])
					}
				}
				for k := range gotP {
					gotP[k] = 99
				}
				c.pool(gotP, scores, positions, nil, nil)
				if !sameBits(gotP, wantP) {
					t.Fatalf("K=%d positions=%d without argmax: pooled %v, want %v", K, positions, gotP, wantP)
				}
			}
		}
	}
}
