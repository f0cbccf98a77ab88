package nn

import (
	"math"
	"math/rand"
	"testing"
)

// frozenTestModels builds the two served architectures with random
// weights: the paper's three kernel widths and its three LSTM layers.
func frozenTestModels() map[string]BatchModel {
	return map[string]BatchModel{
		"cnn": NewCNN(CNNConfig{
			Vocab: 60, Embed: 8, Widths: []int{3, 4, 5}, Kernels: 6,
			Dropout: 0.5, Outputs: 4,
		}, rand.New(rand.NewSource(11))),
		"lstm": NewLSTM(LSTMConfig{
			Vocab: 60, Embed: 8, Hidden: 12, Layers: 3, Outputs: 1,
		}, rand.New(rand.NewSource(12))),
	}
}

// frozenTestIDs is a ragged batch of 16 that opens with the edge
// lengths: empty, one token, shorter than the narrowest window.
func frozenTestIDs() [][]int {
	rng := rand.New(rand.NewSource(13))
	ids := [][]int{{}, {7}, {3, 59}}
	for len(ids) < 16 {
		seq := make([]int, 3+rng.Intn(30))
		for i := range seq {
			seq[i] = rng.Intn(60)
		}
		ids = append(ids, seq)
	}
	return ids
}

// frozenClone returns a frozen CloneShared replica of m.
func frozenClone(m BatchModel) BatchModel {
	rep := m.(ParallelModel).CloneShared()
	rep.(interface{ Freeze() }).Freeze()
	return rep.(BatchModel)
}

// keptLayouts returns the transposed weight copies of every layer of m.
func keptLayouts(m Model) [][]float64 {
	var kept [][]float64
	switch m := m.(type) {
	case *CNNModel:
		for _, c := range m.Convs {
			kept = append(kept, c.wT)
		}
	case *LSTMModel:
		for _, l := range m.Layers {
			kept = append(kept, l.wxT, l.whT)
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
	for name, m := range frozenTestModels() {
		t.Run(name, func(t *testing.T) {
			fz := frozenClone(m)
			for _, p := range fz.Params() {
				if p.G != nil {
					t.Fatalf("param %s keeps a gradient accumulator after Freeze", p.Name)
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
			marked := frozenClone(m)
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

			// CloneShared of a frozen replica trains like any other replica.
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
			want := grads(m.(ParallelModel).CloneShared())
			got := grads(fz.(ParallelModel).CloneShared())
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
