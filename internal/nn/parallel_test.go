package nn

import (
	"math/rand"
	"sync"
	"testing"
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
	for _, master := range []ParallelModel{
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

func TestReduceGradsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	master := NewLSTM(LSTMConfig{Vocab: 10, Embed: 3, Hidden: 4, Layers: 1, Outputs: 2}, rng)
	ids1 := []int{1, 4, 2}
	ids2 := []int{3, 3, 7, 1}

	step := func(m Model, ids []int) {
		out, cache := m.Forward(ids, false, nil)
		m.Backward(ids, cache, ceGrad(out, 1))
	}

	// Sequential reference: both examples accumulate into the master.
	step(master, ids1)
	step(master, ids2)
	want := make([][]float64, len(master.Params()))
	for i, p := range master.Params() {
		want[i] = append([]float64(nil), p.G...)
		p.ZeroGrad()
	}

	// Sharded: example 2 goes through a replica, then reduce.
	replica := master.CloneShared()
	step(master, ids1)
	step(replica, ids2)
	ReduceGrads(master.Params(), replica.Params())

	for i, p := range master.Params() {
		for k := range p.G {
			if !almostEqual(p.G[k], want[i][k], 1e-12) {
				t.Fatalf("%s grad[%d] = %v, sequential %v", p.Name, k, p.G[k], want[i][k])
			}
		}
		for k, g := range replica.Params()[i].G {
			if g != 0 {
				t.Fatalf("%s shard grad[%d] not zeroed after reduce", p.Name, k)
			}
		}
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
	for _, r := range replicas {
		ReduceGrads(master.Params(), r.Params())
	}
	if GradNorm(master.Params()) == 0 {
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
