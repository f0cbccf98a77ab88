package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/f64"
)

func almostEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestCloneSharedSharesWeightsOwnsGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, master := range []Model{
		NewCNN(CNNConfig{Vocab: 12, Embed: 4, Widths: []int{2, 3}, Kernels: 3, Outputs: 2}, rng),
		NewLSTM(LSTMConfig{Vocab: 12, Embed: 4, Hidden: 5, Layers: 2, Outputs: 2}, rng),
	} {
		replica := master.CloneShared()
		mp, rp := master.Params(), replica.Params()
		if len(mp) != len(rp) {
			t.Fatalf("param count: master %d, replica %d", len(mp), len(rp))
		}
		for i := range mp {
			if mp[i].Name != rp[i].Name {
				t.Fatalf("param order mismatch at %d: %s vs %s", i, mp[i].Name, rp[i].Name)
			}
			if &mp[i].W[0] != &rp[i].W[0] {
				t.Fatalf("%s: replica does not share weights", mp[i].Name)
			}
			if &mp[i].G[0] == &rp[i].G[0] {
				t.Fatalf("%s: replica shares gradients", mp[i].Name)
			}
		}
		// A weight update on the master is visible through the replica.
		mp[0].W[0] = 42
		if rp[0].W[0] != 42 {
			t.Fatal("weight update not visible through replica")
		}
	}
}

// TestReduceGradsMatchesSequential checks Step's reduction: two
// examples on two replicas step the master with the gradient that both
// examples accumulate on one replica, and every shard ends zeroed. The
// reduced gradient is read from the first moment, (1-β1)·g after one
// step from zero.
func TestReduceGradsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	master := NewLSTM(LSTMConfig{Vocab: 10, Embed: 3, Hidden: 4, Layers: 1, Outputs: 2}, rng)
	ids1 := []int{1, 4, 2}
	ids2 := []int{3, 3, 7, 1}

	step := func(m Model, ids []int) {
		out, cache := m.Forward(ids, false, nil)
		m.Backward(ids, cache, ceGrad(out, 1))
	}

	// Sequential reference: both examples accumulate into one replica.
	seq := master.CloneShared()
	step(seq, ids1)
	step(seq, ids2)
	want := make([][]float64, len(seq.Params()))
	for i, p := range seq.Params() {
		want[i] = append([]float64(nil), p.G...)
	}

	// Sharded: one example per replica, reduced by Step.
	r1, r2 := master.CloneShared(), master.CloneShared()
	step(r1, ids1)
	step(r2, ids2)
	opt := NewOptimizer(0.01, 0)
	opt.Step(master.Params(), [][]*Param{r1.Params(), r2.Params()}, 1)

	for i, p := range master.Params() {
		for k, m := range p.m {
			if got := m / (1 - opt.Beta1); !almostEqual(got, want[i][k], 1e-12) {
				t.Fatalf("%s grad[%d] = %v, sequential %v", p.Name, k, got, want[i][k])
			}
		}
		for w, shard := range [][]*Param{r1.Params(), r2.Params()} {
			for k, g := range shard[i].G {
				if g != 0 {
					t.Fatalf("%s shard %d grad[%d] not zeroed after Step", p.Name, w, k)
				}
			}
		}
	}
}

// refStep is Optimizer.Step as the separate passes it replaced: the
// shards reduced into grads[0] in worker order (nonzero entries added
// and cleared), the sum scaled by 1/n, the global norm as the root of
// the per-parameter Dots summed in order, the clip applied in place,
// then AdaMax and the zeroing.
func refStep(o *Optimizer, params []*Param, grads [][]*Param, n int) {
	sum := grads[0]
	for _, shard := range grads[1:] {
		for pi, p := range shard {
			for i, g := range p.G {
				if g != 0 {
					sum[pi].G[i] += g
					p.G[i] = 0
				}
			}
		}
	}
	scale := 1.0 / float64(n)
	for _, p := range sum {
		for i := range p.G {
			p.G[i] *= scale
		}
	}
	if c := o.Clip; c > 0 {
		sq := 0.0
		for _, p := range sum {
			sq += f64.Dot(p.G, p.G)
		}
		if norm := math.Sqrt(sq); !(norm <= c || norm == 0) {
			for _, p := range sum {
				for i := range p.G {
					p.G[i] = (c / norm) * p.G[i]
				}
			}
		}
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	for pi, p := range params {
		if p.m == nil {
			p.m = make([]float64, len(p.W))
			p.v = make([]float64, len(p.W))
		}
		for i, g := range sum[pi].G {
			p.m[i] = o.Beta1*p.m[i] + (1-o.Beta1)*g
			u := o.Beta2 * p.v[i]
			if a := math.Abs(g); a > u {
				u = a
			}
			p.v[i] = u
			if u > 0 {
				p.W[i] -= o.LR * (p.m[i] / bc1) / (u + o.Eps)
			}
		}
		for i := range sum[pi].G {
			sum[pi].G[i] = 0
		}
	}
}

// TestStepMatchesReference pins Step bit for bit to refStep: weights,
// moments and every shard after each of two consecutive steps, over
// four shards holding ±0 entries, with the clip disabled, inactive and
// active, and n both equal to and different from the shard count.
func TestStepMatchesReference(t *testing.T) {
	sizes := []int{7, 1, 12}
	// setup builds one parameter set and its shards from seed, so the
	// two sides start from the same bits.
	setup := func(seed int64) ([]*Param, [][]*Param) {
		rng := rand.New(rand.NewSource(seed))
		var params []*Param
		for _, size := range sizes {
			params = append(params, NewParam("p", size, UniformInit(rng, 1)))
		}
		grads := make([][]*Param, 4)
		for w := range grads {
			for _, p := range params {
				grads[w] = append(grads[w], p.Shadow())
			}
		}
		return params, grads
	}
	// fill writes a batch's gradients into the shards: magnitudes far
	// apart, so the summation order shows in the bits, and every fourth
	// entry a +0 or -0 the reduction must neither add nor clear.
	fill := func(grads [][]*Param, seed int64, mag float64) {
		rng := rand.New(rand.NewSource(seed))
		for w, shard := range grads {
			for _, p := range shard {
				for i := range p.G {
					switch {
					case i%4 == w%4 && rng.Intn(2) == 0:
						p.G[i] = math.Copysign(0, -1)
					case i%4 == w%4:
						p.G[i] = 0
					default:
						p.G[i] = mag * rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		clip float64
		mag  float64
		n    int
	}{
		{"no-clip", 0, 1, 4},
		{"clip-inactive", 1e9, 1, 4},
		{"clip-active", 0.25, 1, 4},
		{"clip-active-n7", 0.25, 1, 7},
		{"clip-inactive-n3", 1e9, 1e-3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params, grads := setup(1)
			refParams, refGrads := setup(1)
			opt, ref := NewOptimizer(0.01, tc.clip), NewOptimizer(0.01, tc.clip)
			for step := int64(0); step < 2; step++ {
				fill(grads, 10+step, tc.mag)
				fill(refGrads, 10+step, tc.mag)
				opt.Step(params, grads, tc.n)
				refStep(ref, refParams, refGrads, tc.n)
				for i, p := range params {
					r := refParams[i]
					if !sameBits(p.W, r.W) || !sameBits(p.m, r.m) || !sameBits(p.v, r.v) {
						t.Fatalf("step %d: param %d: weights or moments differ from the reference", step, i)
					}
					for w := range grads {
						if !sameBits(grads[w][i].G, refGrads[w][i].G) {
							t.Fatalf("step %d: shard %d param %d: %v, reference %v", step, w, i, grads[w][i].G, refGrads[w][i].G)
						}
					}
				}
				if step == 0 && tc.clip == 0.25 {
					// One step from zero moments: m = (1-β1)·g, and the
					// clipped g has norm Clip.
					sq := 0.0
					for _, p := range params {
						for _, m := range p.m {
							sq += (m / (1 - opt.Beta1)) * (m / (1 - opt.Beta1))
						}
					}
					if got := math.Sqrt(sq); math.Abs(got-tc.clip) > 1e-9 {
						t.Fatalf("clipped gradient norm %v, want %v", got, tc.clip)
					}
				}
			}
		})
	}
}

func TestConcurrentReplicaTraining(t *testing.T) {
	// Exercised under -race in CI: concurrent Forward/Backward on
	// distinct replicas sharing weights must not race.
	rng := rand.New(rand.NewSource(3))
	master := NewCNN(CNNConfig{Vocab: 20, Embed: 4, Widths: []int{2, 3}, Kernels: 4, Dropout: 0.5, Outputs: 3}, rng)
	const workers = 4
	var wg sync.WaitGroup
	replicas := make([]Model, workers)
	for w := 0; w < workers; w++ {
		replica := master.CloneShared()
		replicas[w] = replica
		wg.Add(1)
		go func(w int, m Model) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 20; it++ {
				ids := []int{w, it % 20, (w + it) % 20, 5}
				out, cache := m.Forward(ids, true, wrng)
				m.Backward(ids, cache, ceGrad(out, it%3))
			}
		}(w, replica)
	}
	wg.Wait()
	before := append([]float64(nil), master.FC.W.W...)
	grads := make([][]*Param, workers)
	for w, r := range replicas {
		grads[w] = r.Params()
	}
	NewOptimizer(0.01, 0).Step(master.Params(), grads, workers*20)
	if sameBits(master.FC.W.W, before) {
		t.Fatal("no gradient accumulated")
	}
}

// TestForwardBackwardAllocationFree holds a warm forward+backward pass
// to zero allocations, in inference mode and in training mode with
// dropout drawn from an rng.
func TestForwardBackwardAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lstm := NewLSTM(LSTMConfig{Vocab: 30, Embed: 8, Hidden: 12, Layers: 3, Outputs: 3}, rng)
	cnn := NewCNN(CNNConfig{Vocab: 30, Embed: 8, Widths: []int{3, 4, 5}, Kernels: 8, Dropout: 0.5, Outputs: 3}, rng)
	ids := make([]int, 40)
	for i := range ids {
		ids[i] = (i * 7) % 30
	}
	dout := []float64{0.2, -0.1, -0.1}
	drop := rand.New(rand.NewSource(5))

	for name, m := range map[string]Model{"lstm": lstm, "cnn": cnn} {
		for _, train := range []bool{false, true} {
			run := func() {
				_, cache := m.Forward(ids, train, drop)
				m.Backward(ids, cache, dout)
			}
			run() // warm the scratch buffers
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("%s (train=%v): forward+backward allocates %v times per run, want 0", name, train, allocs)
			}
		}
	}
}
