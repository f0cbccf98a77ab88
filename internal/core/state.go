package core

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/sqllex"
)

// SnapshotState is the complete serializable state of a trained neural
// model: architecture configuration, every weight tensor, the
// vocabulary, and the prediction metadata. It is the bridge between
// core and internal/artifact — the artifact layer owns the byte
// format, this type owns what a model *is*. A state exported from one
// process and restored in another yields a model whose predictions are
// bit-identical to the source (same weights, same encoder, same
// deterministic forward math).
//
// Only the four neural models (ccnn, wcnn, clstm, wlstm) are
// serializable; the baselines and TF-IDF models hold closure-captured
// fitted state with no export surface.
type SnapshotState struct {
	Name    string
	Task    Task
	V, P    int
	Version int
	LogMin  float64
	MaxLen  int
	Seed    int64
	// Exactly one of CNN/LSTM is set, selecting the architecture.
	CNN  *nn.CNNConfig
	LSTM *nn.LSTMConfig
	// Vocab is the encoder vocabulary in token-id order (index 0 is the
	// unknown token).
	Vocab []string
	// Params are the weight tensors in the model's canonical Params()
	// order.
	Params []ParamState
}

// ParamState is one named weight tensor of a SnapshotState.
type ParamState struct {
	Name string
	W    []float64
}

// ExportState extracts the serializable state of a neural model. The
// returned state aliases the model's weight and vocabulary storage (no
// copies), so it must be consumed — encoded or discarded — before the
// model is mutated; exporting from an immutable Snapshot is always
// safe. Baseline and TF-IDF models return an error.
func (m *Model) ExportState() (*SnapshotState, error) {
	if m.neural.model == nil {
		return nil, fmt.Errorf("core: model %q has no serializable neural backend", m.Name)
	}
	st := &SnapshotState{
		Name: m.Name, Task: m.Task, V: m.V, P: m.P, Version: m.Version,
		LogMin: m.LogMin, MaxLen: m.maxLen, Seed: m.rngSeed,
		Vocab: m.neural.vocab.Tokens(),
	}
	switch nm := m.neural.model.(type) {
	case *nn.CNNModel:
		cfg := nm.Config()
		st.CNN = &cfg
	case *nn.LSTMModel:
		cfg := nm.Config()
		st.LSTM = &cfg
	default:
		return nil, fmt.Errorf("core: model %q: unknown neural backend %T", m.Name, m.neural.model)
	}
	for _, p := range m.neural.model.Params() {
		st.Params = append(st.Params, ParamState{Name: p.Name, W: p.W})
	}
	return st, nil
}

// RestoreState rebuilds a ready-to-predict Model from an exported
// state: the architecture is reconstructed from its config, every
// weight tensor is validated against the architecture's canonical
// shape (name, order, and size) and copied in, and the prediction
// closures are bound with fresh scratch. Validation happens before any
// architecture-sized allocation, so a corrupt or adversarial state is
// rejected with an error rather than an OOM or panic.
func RestoreState(st *SnapshotState) (*Model, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil snapshot state")
	}
	if err := validateState(st); err != nil {
		return nil, err
	}
	// The RNG only seeds initial weights, which the copies below fully
	// overwrite; any seed yields the same restored model.
	rng := rand.New(rand.NewSource(0))
	var model nn.Model
	if st.CNN != nil {
		model = nn.NewCNN(*st.CNN, rng)
	} else {
		model = nn.NewLSTM(*st.LSTM, rng)
	}
	for i, p := range model.Params() {
		copy(p.W, st.Params[i].W)
	}
	vocab, err := sqllex.VocabularyFromTokens(st.Vocab)
	if err != nil {
		return nil, fmt.Errorf("core: restore %q: %w", st.Name, err)
	}
	m := &Model{
		Name: st.Name, Task: st.Task, V: st.V, P: st.P, Version: st.Version,
		LogMin: st.LogMin,
		neural: nnBackend{model: model, vocab: vocab},
		maxLen: st.MaxLen, rngSeed: st.Seed,
	}
	m.bindNeuralPredict()
	return m, nil
}

// paramShape is one expected (name, size) entry of an architecture's
// canonical parameter list.
type paramShape struct {
	name string
	size int
}

// Dimension ceilings for restored architectures. Generous for any
// model this codebase trains, and small enough that no shape product
// below can overflow int or admit an absurd allocation from a
// corrupted or adversarial artifact.
const (
	maxRestoreVocab = 1 << 28 // tokens / embedding rows
	maxRestoreDim   = 1 << 20 // embed, hidden, kernels, outputs, widths
	maxRestoreDepth = 1 << 10 // LSTM layers, CNN width count
)

// validateState checks a state's internal consistency — model kind,
// task range, architecture config sanity, and that the declared
// parameter names/order/sizes match the architecture's canonical
// shapes — before anything is allocated at architecture scale.
func validateState(st *SnapshotState) error {
	switch st.Name {
	case "ccnn", "wcnn", "clstm", "wlstm":
	default:
		return fmt.Errorf("core: restore: %q is not a serializable neural model", st.Name)
	}
	if _, ok := st.Task.row(); !ok {
		return fmt.Errorf("core: restore %q: unknown task %d", st.Name, int(st.Task))
	}
	if st.MaxLen <= 0 {
		return fmt.Errorf("core: restore %q: non-positive max length %d", st.Name, st.MaxLen)
	}
	if (st.CNN == nil) == (st.LSTM == nil) {
		return fmt.Errorf("core: restore %q: exactly one architecture config required", st.Name)
	}
	wantCNN := st.Name == "ccnn" || st.Name == "wcnn"
	if wantCNN != (st.CNN != nil) {
		return fmt.Errorf("core: restore %q: architecture config does not match model kind", st.Name)
	}
	var shapes []paramShape
	var vocabSize, outputs int
	if st.CNN != nil {
		cfg := st.CNN
		vocabSize, outputs = cfg.Vocab, cfg.Outputs
		if cfg.Vocab <= 0 || cfg.Embed <= 0 || cfg.Kernels <= 0 || len(cfg.Widths) == 0 {
			return fmt.Errorf("core: restore %q: degenerate CNN config %+v", st.Name, *cfg)
		}
		if cfg.Vocab > maxRestoreVocab || cfg.Embed > maxRestoreDim || cfg.Kernels > maxRestoreDim ||
			cfg.Outputs > maxRestoreDim || len(cfg.Widths) > maxRestoreDepth {
			return fmt.Errorf("core: restore %q: CNN config dimensions out of range", st.Name)
		}
		shapes = append(shapes, paramShape{"emb", cfg.Vocab * cfg.Embed})
		for _, w := range cfg.Widths {
			if w <= 0 || w > maxRestoreDim {
				return fmt.Errorf("core: restore %q: kernel width %d out of range", st.Name, w)
			}
			shapes = append(shapes,
				paramShape{"conv.W", cfg.Kernels * w * cfg.Embed},
				paramShape{"conv.b", cfg.Kernels})
		}
		shapes = append(shapes,
			paramShape{"fc.W", cfg.Outputs * cfg.Kernels * len(cfg.Widths)},
			paramShape{"fc.b", cfg.Outputs})
	} else {
		cfg := st.LSTM
		vocabSize, outputs = cfg.Vocab, cfg.Outputs
		if cfg.Vocab <= 0 || cfg.Embed <= 0 || cfg.Hidden <= 0 || cfg.Layers <= 0 {
			return fmt.Errorf("core: restore %q: degenerate LSTM config %+v", st.Name, *cfg)
		}
		if cfg.Vocab > maxRestoreVocab || cfg.Embed > maxRestoreDim || cfg.Hidden > maxRestoreDim ||
			cfg.Outputs > maxRestoreDim || cfg.Layers > maxRestoreDepth {
			return fmt.Errorf("core: restore %q: LSTM config dimensions out of range", st.Name)
		}
		shapes = append(shapes, paramShape{"emb", cfg.Vocab * cfg.Embed})
		in := cfg.Embed
		for l := 0; l < cfg.Layers; l++ {
			shapes = append(shapes,
				paramShape{"lstm.Wx", 4 * cfg.Hidden * in},
				paramShape{"lstm.Wh", 4 * cfg.Hidden * cfg.Hidden},
				paramShape{"lstm.b", 4 * cfg.Hidden})
			in = cfg.Hidden
		}
		shapes = append(shapes,
			paramShape{"fc.W", cfg.Outputs * cfg.Hidden},
			paramShape{"fc.b", cfg.Outputs})
	}
	if vocabSize != len(st.Vocab) {
		return fmt.Errorf("core: restore %q: config vocab %d, %d tokens stored",
			st.Name, vocabSize, len(st.Vocab))
	}
	wantOutputs := 1
	if st.Task.IsClassification() {
		wantOutputs = st.Task.NumClasses()
	}
	if outputs != wantOutputs {
		return fmt.Errorf("core: restore %q: %d outputs, task %s wants %d",
			st.Name, outputs, st.Task, wantOutputs)
	}
	if len(st.Params) != len(shapes) {
		return fmt.Errorf("core: restore %q: %d params, architecture wants %d",
			st.Name, len(st.Params), len(shapes))
	}
	for i, want := range shapes {
		got := st.Params[i]
		if got.Name != want.name || len(got.W) != want.size {
			return fmt.Errorf("core: restore %q: param %d is %s[%d], architecture wants %s[%d]",
				st.Name, i, got.Name, len(got.W), want.name, want.size)
		}
	}
	return nil
}
