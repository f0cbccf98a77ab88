package core

import (
	"repro/internal/nn"
	"repro/internal/sqllex"
)

// argmax returns the index of the largest value (0 for an empty
// slice) — the single argmax shared by Model.PredictClass and the
// evaluation pipeline.
func argmax(p []float64) int {
	best := 0
	for c := range p {
		if p[c] > p[best] {
			best = c
		}
	}
	return best
}

// growFloats resizes *buf to length n, reusing capacity when possible.
// Contents are unspecified; callers overwrite.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// newEncoder returns a fused tokenize+encode sqllex.Encoder over the
// model's vocabulary at its granularity and input budget — the one way
// a neural model turns a statement into token ids, for training and
// prediction alike.
func (m *Model) newEncoder() *sqllex.Encoder {
	return sqllex.NewEncoder(m.neural.vocab, len(m.Name) > 0 && m.Name[0] == 'w', m.maxLen)
}

// bindNeuralPredict (re)builds the model's prediction closures around
// its neural backend with fresh per-instance scratch: a fused
// tokenize+encode sqllex.Encoder and a softmax output buffer. The warm
// predict path therefore allocates nothing; the closures are not safe
// for concurrent use (see Replicate).
func (m *Model) bindNeuralPredict() {
	backend := m.neural
	enc := m.newEncoder()
	// The fused batch forward: encode every statement (copying the
	// ids out of the encoder's reused scratch into one flat buffer)
	// and run the whole group through the network as n-row matrices.
	// The predict hook fires per statement before any network work,
	// matching the scalar closures' hook-then-forward order; a
	// poisoned statement therefore panics the fused call before
	// results exist, and the serving layer retries per request.
	var (
		idsFlat []int
		lens    []int
		rows    [][]int
	)
	m.forwardBatch = func(stmts []string) ([]float64, int) {
		idsFlat = idsFlat[:0]
		lens = lens[:0]
		for _, stmt := range stmts {
			if m.predictHook != nil {
				m.predictHook(stmt)
			}
			ids := enc.Encode(stmt)
			idsFlat = append(idsFlat, ids...)
			lens = append(lens, len(ids))
		}
		if cap(rows) < len(stmts) {
			rows = make([][]int, len(stmts))
		}
		rows = rows[:len(stmts)]
		off := 0
		for r, l := range lens {
			rows[r] = idsFlat[off : off+l]
			off += l
		}
		return backend.model.ForwardBatch(rows)
	}
	if m.Task.IsClassification() {
		var probs []float64
		m.probs = func(stmt string) []float64 {
			if m.predictHook != nil {
				m.predictHook(stmt)
			}
			out, _ := backend.model.Forward(enc.Encode(stmt), false, nil)
			return nn.SoftmaxInto(out, growFloats(&probs, len(out)))
		}
		return
	}
	m.value = func(stmt string) float64 {
		if m.predictHook != nil {
			m.predictHook(stmt)
		}
		out, _ := backend.model.Forward(enc.Encode(stmt), false, nil)
		return out[0]
	}
}

// ProbsBatchInto computes the class distributions for a batch of
// statements, writing row i into dst[i] (reusing each row's backing
// array like ProbsInto) and returning the resized dst. Neural models
// run the whole batch through the network as n-row matrices — one
// fused forward instead of len(stmts) — with each row bit-identical to
// ProbsInto on that statement; non-neural models and batches of fewer
// than two statements fall back to the scalar path. Returns nil for
// regression models. Not safe for concurrent use (see Model).
func (m *Model) ProbsBatchInto(stmts []string, dst [][]float64) [][]float64 {
	if m.probs == nil {
		return nil
	}
	if cap(dst) < len(stmts) {
		grown := make([][]float64, len(stmts))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:len(stmts)]
	if m.forwardBatch == nil || len(stmts) < 2 {
		for i, stmt := range stmts {
			dst[i] = append(dst[i][:0], m.probs(stmt)...)
		}
		return dst
	}
	out, outDim := m.forwardBatch(stmts)
	for i := range stmts {
		row := growFloats(&dst[i], outDim)
		nn.SoftmaxInto(out[i*outDim:(i+1)*outDim], row)
	}
	return dst
}

// PredictLogBatchInto computes log-space regression predictions for a
// batch of statements into dst (reusing its capacity) and returns the
// resized dst. Neural models use one fused batch forward; each element
// is bit-identical to PredictLog on that statement. Returns nil for
// classification models. Not safe for concurrent use (see Model).
func (m *Model) PredictLogBatchInto(stmts []string, dst []float64) []float64 {
	if m.value == nil {
		return nil
	}
	dst = growFloats(&dst, len(stmts))
	if m.forwardBatch == nil || len(stmts) < 2 {
		for i, stmt := range stmts {
			dst[i] = m.value(stmt)
		}
		return dst
	}
	out, outDim := m.forwardBatch(stmts)
	for i := range stmts {
		dst[i] = out[i*outDim]
	}
	return dst
}

// Replicate returns a predictor that shares m's trained weights but
// owns private inference scratch, so distinct replicas can predict
// concurrently (the foundation of serve.Predictor's replica pool).
//
// Neural models are cloned through nn.Model.CloneShared — the
// same shared-weight mechanism data-parallel training uses — plus a
// fresh per-replica encoder and softmax buffer, and the clone is frozen
// before anything else can use it: no gradient accumulators, and what
// the forward pass reads is derived from the weights here, once,
// instead of on every prediction — transposed matrices for an LSTM,
// and for a CNN whose vocabulary is small enough (every character
// model; see nn.CNNModel.Freeze) tables of the convolution's partial
// sums per token, so that a prediction adds table rows where m
// multiplies. That makes Replicate the expensive call (about 0.3 ms and
// 0.9 MiB for ccnn at DefaultConfig, a few ms and 12 KiB per
// vocabulary entry for a tabled wcnn) and every prediction after it
// the cheap one. Predictions stay bit-identical to m's. Baseline and
// TF-IDF models predict by reading immutable fitted state only, so
// Replicate returns the receiver itself.
//
// Replicas alias the original weights: mutating them (FineTune) while
// replicas serve is a data race, and a replica made before its
// original's weights were mutated keeps layouts and tables of the old
// weights — it must be discarded, not reused. A replica is
// inference-only: FineTune refuses it (Snapshot it first).
func (m *Model) Replicate() *Model {
	if m.neural.model == nil {
		return m
	}
	replica := m.neural.model.CloneShared()
	replica.Freeze()
	r := &Model{
		Name: m.Name, Task: m.Task, V: m.V, P: m.P, LogMin: m.LogMin,
		neural: nnBackend{model: replica, vocab: m.neural.vocab},
		maxLen: m.maxLen, rngSeed: m.rngSeed,
		predictHook: m.predictHook,
		frozen:      true,
	}
	r.bindNeuralPredict()
	return r
}
