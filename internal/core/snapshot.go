package core

// Snapshot returns an immutable deep copy of the model: its weights
// live in fresh arrays that no FineTune on the original (or any other
// snapshot) can ever touch. This is the unit a model registry stores
// and serves — a deployed snapshot keeps answering bit-identically
// while the original is fine-tuned for the next version.
//
// Neural models get fully independent parameter arrays plus private
// prediction scratch. Baseline and TF-IDF models are immutable after
// fitting (FineTune refuses them), so their snapshot shares the fitted
// state behind a fresh Model header — still safe, because nothing can
// mutate that state.
func (m *Model) Snapshot() *Model {
	c := *m
	if m.neural.model == nil {
		return &c
	}
	// CloneShared gives a structural replica whose params alias the
	// master's weights; re-pointing each param at a private copy makes
	// the clone deep. Layers read weights through the *Param at call
	// time, so the swap is complete, and the gradient shadows can be
	// dropped: inference never reads them, and a FineTune trains on
	// replicas with gradients of their own.
	replica := m.neural.model.CloneShared()
	for _, p := range replica.Params() {
		p.W = append([]float64(nil), p.W...)
		p.G = nil
	}
	c.neural = nnBackend{model: replica, vocab: m.neural.vocab}
	c.frozen = false // the clone of a Replicate copy is an ordinary model again
	c.bindNeuralPredict()
	return &c
}
