package nn

import (
	"math/rand"

	"repro/internal/f64"
)

// Model is a sequence model mapping token-id sequences to output
// vectors (class logits, or a single regression value). CNNModel and
// LSTMModel implement it.
//
// Implementations reuse internal scratch buffers across calls, so a
// Model instance must not be used from multiple goroutines at once;
// concurrent training workers and serving replicas each hold a
// CloneShared replica.
type Model interface {
	// Forward runs the network. The returned cache must be passed to
	// Backward. rng drives dropout at train time.
	Forward(ids []int, train bool, rng *rand.Rand) (out []float64, cache any)
	// Backward accumulates parameter gradients given dL/dout.
	Backward(ids []int, cache any, dout []float64)
	// Params returns all learnable parameters.
	Params() []*Param
	// ForwardBatch runs inference (no dropout, no gradient caches) over
	// a batch of sequences as one n-row matrix per layer, returning the
	// logits as an n×outDim row-major matrix in model-owned scratch,
	// valid until the next ForwardBatch call. Row r is bit-identical to
	// Forward(ids[r], false, nil).
	ForwardBatch(ids [][]int) (out []float64, outDim int)
	// CloneShared returns a trainable replica sharing the receiver's
	// weight arrays, with private gradient accumulators (see
	// Param.Shadow) and private scratch. Params() of the replica
	// returns the shadows in the order of the receiver's Params().
	CloneShared() Model
	// Freeze makes the model an inference replica for good (see
	// CNNModel.Freeze). It is meant for a replica CloneShared just
	// returned.
	Freeze()
}

// CNNConfig configures the shallow CNN of Section 5.3.
type CNNConfig struct {
	Vocab   int
	Embed   int
	Widths  []int // kernel window sizes; the paper uses {3,4,5}
	Kernels int   // kernels per width
	Dropout float64
	Outputs int // #classes, or 1 for regression
}

// CNNModel implements Kim's architecture: embedding, parallel kernel
// banks with ReLU and max-over-time pooling, dropout, and a fully
// connected output layer.
type CNNModel struct {
	cfg   CNNConfig
	Emb   *Embedding
	Convs []*Conv1D
	Drop  Dropout
	FC    *Dense

	frozen bool // see Freeze
	tabled bool // frozen, and every bank holds a table instead of wT
	cache  cnnCache
	bcache cnnBatchCache
}

// tableBudget is the most table memory, in bytes, a frozen replica
// takes: Freeze tables a CNN whose banks' tables together fit, an LSTM
// whose first layer's table fits, and no other. A CNN's entry per
// (token, offset, block, kernel) is 12 288 B per vocabulary entry at
// core.DefaultConfig's shape, so the budget admits vocabularies up to
// 682 there — every character model, a word model over a few hundred
// distinct tokens — and never a paper-scale word vocabulary (20 000
// tokens: 245 MB; the LSTM's 1 024 B per token there is 20 MB). Past a
// few thousand tokens a table that has left the cache is no faster than
// the GEMM it replaces; BenchmarkCNNTableSweep is the measurement this
// constant rests on.
const tableBudget = 8 << 20

// NewCNN builds a CNN model.
func NewCNN(cfg CNNConfig, rng *rand.Rand) *CNNModel {
	if len(cfg.Widths) == 0 {
		cfg.Widths = []int{3, 4, 5}
	}
	m := &CNNModel{cfg: cfg, Drop: Dropout{P: cfg.Dropout}}
	m.Emb = NewEmbedding("emb", cfg.Vocab, cfg.Embed, rng)
	for _, w := range cfg.Widths {
		m.Convs = append(m.Convs, NewConv1D("conv", w, cfg.Embed, cfg.Kernels, rng))
	}
	m.FC = NewDense("fc", cfg.Kernels*len(cfg.Widths), cfg.Outputs, rng)
	return m
}

type cnnCache struct {
	convs  []*ConvCache
	pooled []float64 // concatenated, pre-dropout
	masked []float64 // post-dropout (input to FC)
	mask   []float64
	ids    []int // a tabled forward's token ids, clamped to the vocabulary

	// Backward scratch: dL/dx of the embeddings, n×Embed.
	dx []float64
}

// cnnBatchCache is the inference-only batch scratch, sized by the
// largest batch seen and reused across ForwardBatch calls.
type cnnBatchCache struct {
	offs, lens []int
	xb         []float64 // examples packed back to back, Σ lens[r] rows of Embed
	pooled     []float64 // n × (Kernels·len(Convs)) concatenated bank outputs
	out        []float64 // n × Outputs logits
}

// Config returns the architecture configuration the model was built
// with — the serialization hook a model artifact stores so the exact
// network can be reconstructed in another process.
func (m *CNNModel) Config() CNNConfig { return m.cfg }

// CloneShared implements Model. The clone is an ordinary
// trainable replica even when m is frozen.
func (m *CNNModel) CloneShared() Model {
	c := &CNNModel{cfg: m.cfg, Drop: Dropout{P: m.Drop.P}}
	c.Emb = m.Emb.CloneShared()
	for _, conv := range m.Convs {
		c.Convs = append(c.Convs, conv.CloneShared())
	}
	c.FC = m.FC.CloneShared()
	return c
}

// Freeze makes m an inference replica for good: it drops every
// parameter's gradient accumulator (which would otherwise double the
// replica's parameter memory) and derives, once, the layout each kernel
// bank's forward pass reads, so Forward and ForwardBatch stop deriving
// it on every call. It is meant for the replica CloneShared just
// returned, before anything else can use it.
//
// Which layout is read off the model. Every operand of the banks' GEMM
// is now a constant — a token's embedding row, a bank's kernels — so
// where every bank can have one (Embed a multiple of 4, see
// Conv1D.tableLen) and the tables together fit tableBudget, each
// bank keeps a table of the 4-term block sums that GEMM would form
// (Conv1D.tabulate), and a forward pass sums table rows by token id and
// max-pools them in one kernel (Conv1D.poolTable): no embedding copies,
// no packed input, no score matrix, no multiply. Otherwise each bank
// keeps its kernels transposed (the f64.Transpose an unfrozen forward
// redoes per call) and runs the same embed → score → pool path as an
// unfrozen model. All banks or none, one layout per bank, and the
// outputs are bit-identical to the unfrozen model's either way: a table
// entry is the GEMM's own term, added in the GEMM's own order.
//
// The price is that the weights must not change afterwards: the kept
// layouts would go stale, so a replica frozen before its weights were
// mutated must be discarded. Backward on a frozen model panics.
func (m *CNNModel) Freeze() {
	bytes, ok := m.tableBytes()
	m.freeze(ok && bytes <= tableBudget)
}

// freeze is Freeze with the choice of layout made by the caller (the
// package's benchmarks measure both on one model).
func (m *CNNModel) freeze(tabled bool) {
	dropGrads(m.Params())
	for _, conv := range m.Convs {
		conv.freeze()
		if tabled {
			conv.tabulate(m.Emb)
		}
	}
	m.frozen, m.tabled = true, tabled
}

// tableBytes is the memory the banks' tables would take together; ok
// is false if some bank cannot have one.
func (m *CNNModel) tableBytes() (bytes int, ok bool) {
	for _, conv := range m.Convs {
		n, ok := conv.tableLen(m.Emb.V)
		if !ok {
			return 0, false
		}
		bytes += 8 * n
	}
	return bytes, true
}

// poolTabled writes the concatenated bank outputs of one statement into
// pooled on a tabled model. Ids outside the vocabulary become token 0
// first, once for all banks, exactly as Embedding.Forward clamps them.
func (m *CNNModel) poolTabled(pooled []float64, ids []int) {
	clamped := growI(&m.cache.ids, len(ids))
	for i, id := range ids {
		if id < 0 || id >= m.Emb.V {
			id = 0
		}
		clamped[i] = id
	}
	k := m.cfg.Kernels
	for ci, conv := range m.Convs {
		conv.poolTable(pooled[ci*k:(ci+1)*k], clamped)
	}
}

// Forward implements Model: Features, then the dense head.
func (m *CNNModel) Forward(ids []int, train bool, rng *rand.Rand) ([]float64, any) {
	feat, cache := m.Features(ids, train, rng)
	return m.FC.Forward(feat), cache
}

// Features runs the encoder half of Forward — ids → embedding → kernel
// banks → dropout — and returns the features the dense head reads, in
// model-owned scratch valid until the next call. A model with heads of
// its own beside FC (core.MultiTaskModel) calls it directly, applies its
// heads, and hands the summed gradient of the features, with the cache,
// to BackwardFeatures.
func (m *CNNModel) Features(ids []int, train bool, rng *rand.Rand) ([]float64, any) {
	cache := &m.cache
	k := m.cfg.Kernels
	pooled := growF(&cache.pooled, k*len(m.Convs))
	if m.tabled {
		m.poolTabled(pooled, ids)
	} else {
		x := m.Emb.Forward(ids)
		cache.convs = cache.convs[:0]
		for ci, conv := range m.Convs {
			p, cc := conv.Forward(x)
			cache.convs = append(cache.convs, cc)
			copy(pooled[ci*k:(ci+1)*k], p)
		}
	}
	cache.masked, cache.mask = m.Drop.Forward(pooled, train, rng)
	return cache.masked, cache
}

// ForwardBatch implements Model: the embeddings of every example
// are packed back to back into one buffer, each kernel bank scores and
// pools the whole batch in one call (writing its slice of each row of
// the concatenated pooled matrix), and the output layer maps the n×F
// pooled matrix to n×Outputs. A tabled model (see Freeze) fills each
// row of the pooled matrix from its tables, as Forward does, and packs
// nothing. Dropout is identity at inference, so the per-row compute
// chain matches Forward exactly.
func (m *CNNModel) ForwardBatch(ids [][]int) ([]float64, int) {
	n := len(ids)
	outDim := m.cfg.Outputs
	bc := &m.bcache
	out := growF(&bc.out, n*outDim)
	if n == 0 {
		return out, outDim
	}
	if n == 1 {
		y, _ := m.Forward(ids[0], false, nil)
		copy(out, y)
		return out, outDim
	}
	stride := m.cfg.Kernels * len(m.Convs)
	pooled := growF(&bc.pooled, n*stride)
	if m.tabled {
		for r, seq := range ids {
			m.poolTabled(pooled[r*stride:(r+1)*stride], seq)
		}
	} else {
		d := m.cfg.Embed
		offs := growI(&bc.offs, n)
		lens := growI(&bc.lens, n)
		total := 0
		for r, seq := range ids {
			offs[r] = total * d
			lens[r] = len(seq)
			total += len(seq)
		}
		xb := growF(&bc.xb, total*d)
		for r, seq := range ids {
			m.Emb.gather(xb[offs[r]:], seq)
		}
		for ci, conv := range m.Convs {
			conv.ForwardBatch(xb, offs, lens, pooled, stride, ci*m.cfg.Kernels)
		}
	}
	m.FC.ForwardBatch(out, pooled, n)
	return out, outDim
}

// Backward implements Model: the dense head, then BackwardFeatures.
func (m *CNNModel) Backward(ids []int, cacheAny any, dout []float64) {
	if m.frozen {
		panic(frozenBackwardPanic)
	}
	m.BackwardFeatures(ids, cacheAny, m.FC.Backward(cacheAny.(*cnnCache).masked, dout))
}

// BackwardFeatures is the encoder half of Backward: given the gradient
// of the features Features returned, it accumulates the gradients of
// the banks and the embedding (dropout → banks → embedding).
func (m *CNNModel) BackwardFeatures(ids []int, cacheAny any, dfeat []float64) {
	if m.frozen {
		panic(frozenBackwardPanic)
	}
	cache := cacheAny.(*cnnCache)
	dpooled := m.Drop.Backward(dfeat, cache.mask)
	dx := growF(&cache.dx, len(ids)*m.cfg.Embed)
	zeroF(dx)
	k := m.cfg.Kernels
	for ci, conv := range m.Convs {
		f64.AddTo(dx, conv.Backward(cache.convs[ci], dpooled[ci*k:(ci+1)*k]))
	}
	m.Emb.Backward(ids, dx)
}

// Params implements Model.
func (m *CNNModel) Params() []*Param {
	params := m.Emb.Params()
	for _, c := range m.Convs {
		params = append(params, c.Params()...)
	}
	return append(params, m.FC.Params()...)
}

// LSTMConfig configures the stacked LSTM of Section 5.2.
type LSTMConfig struct {
	Vocab   int
	Embed   int
	Hidden  int
	Layers  int // the paper uses 3
	Outputs int
}

// LSTMModel is the three-layer LSTM: embedding, stacked LSTM layers,
// and a fully connected layer over the final hidden state h^3_n
// (Figure 18).
type LSTMModel struct {
	cfg    LSTMConfig
	Emb    *Embedding
	Layers []*LSTMLayer
	FC     *Dense

	frozen bool // see Freeze
	cache  lstmModelCache
	bcache lstmBatchModelCache
	dtop   []float64 // backward scratch: gradient into the top layer, n×Hidden
	padOne [1]int    // stand-in ids for empty sequences
}

// NewLSTM builds a stacked LSTM model.
func NewLSTM(cfg LSTMConfig, rng *rand.Rand) *LSTMModel {
	if cfg.Layers <= 0 {
		cfg.Layers = 3
	}
	m := &LSTMModel{cfg: cfg}
	m.Emb = NewEmbedding("emb", cfg.Vocab, cfg.Embed, rng)
	in := cfg.Embed
	for l := 0; l < cfg.Layers; l++ {
		m.Layers = append(m.Layers, NewLSTMLayer("lstm", in, cfg.Hidden, rng))
		in = cfg.Hidden
	}
	m.FC = NewDense("fc", cfg.Hidden, cfg.Outputs, rng)
	return m
}

type lstmModelCache struct {
	layerCaches []*LSTMCache
	last        []float64 // final hidden state of the top layer
}

// lstmBatchModelCache is the inference-only batch scratch, sized by the
// largest batch seen and reused across ForwardBatch calls.
type lstmBatchModelCache struct {
	trie lstmTrie
	xb   []float64 // node-major input: one widths[t]×Embed block per step
	last []float64 // n × Hidden final hidden states
	out  []float64 // n × Outputs logits
}

// Config returns the architecture configuration the model was built
// with (see CNNModel.Config).
func (m *LSTMModel) Config() LSTMConfig { return m.cfg }

// CloneShared implements Model. The clone is an ordinary
// trainable replica even when m is frozen.
func (m *LSTMModel) CloneShared() Model {
	c := &LSTMModel{cfg: m.cfg}
	c.Emb = m.Emb.CloneShared()
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, l.CloneShared())
	}
	c.FC = m.FC.CloneShared()
	return c
}

// Freeze makes m an inference replica for good, under CNNModel.Freeze's
// contract: gradient accumulators dropped, every layer's Wx and Wh
// transposed once and kept, outputs bit-identical, weights not to be
// changed afterwards, Backward panics. The first layer's input
// transform b + Wx·E[v] is by then a function of the token alone: where
// one 4·Hidden row of it per vocabulary entry fits tableBudget
// (core.DefaultConfig's clstm: 77 × 1 024 B; a 20 000-word wlstm does
// not) the layer keeps that table in place of its Wxᵀ
// (LSTMLayer.tabulate), and Forward and ForwardBatch copy a row where
// they ran a 4·Hidden × Embed product.
func (m *LSTMModel) Freeze() {
	m.freeze(8*m.Emb.V*4*m.cfg.Hidden <= tableBudget)
}

// freeze is Freeze with the choice of layout made by the caller (the
// package's tests run both on one model).
func (m *LSTMModel) freeze(tabled bool) {
	dropGrads(m.Params())
	for _, l := range m.Layers {
		l.freeze()
	}
	if tabled {
		m.Layers[0].tabulate(m.Emb)
	}
	m.frozen = true
}

// Forward implements Model. Empty sequences are padded with the
// unknown token so the network always has at least one step.
func (m *LSTMModel) Forward(ids []int, train bool, rng *rand.Rand) ([]float64, any) {
	if len(ids) == 0 {
		m.padOne[0] = 0
		ids = m.padOne[:]
	}
	cache := &m.cache
	cache.layerCaches = cache.layerCaches[:0]
	var x []float64
	upper := m.Layers
	if m.Layers[0].table != nil {
		hs, lc := m.Layers[0].forwardTabled(ids)
		cache.layerCaches = append(cache.layerCaches, lc)
		x, upper = hs, m.Layers[1:]
	} else {
		x = m.Emb.Forward(ids)
	}
	for _, layer := range upper {
		hs, lc := layer.Forward(x)
		cache.layerCaches = append(cache.layerCaches, lc)
		x = hs
	}
	cache.last = x[len(x)-m.cfg.Hidden:]
	return m.FC.Forward(cache.last), cache
}

// ForwardBatch implements Model. The batch is laid out as the
// prefix tree of its token sequences (lstmTrie): lanes are ordered
// lexicographically, every distinct prefix is one node, and block t of
// every layer holds one row per node of depth t, so each LSTM layer
// advances all running prefixes one step per pair of GEMMs (see
// LSTMLayer.ForwardBatch) and a batch costs its distinct prefixes, not
// the sum of its lane lengths and never T×n. Each lane's logits read
// from the node its sequence ends in. Rows are independent throughout,
// so neither the order nor the sharing is visible in the output: every
// example is bit-identical to the scalar path, in request order.
func (m *LSTMModel) ForwardBatch(ids [][]int) ([]float64, int) {
	n := len(ids)
	outDim := m.cfg.Outputs
	bc := &m.bcache
	out := growF(&bc.out, n*outDim)
	if n == 0 {
		return out, outDim
	}
	if n == 1 {
		y, _ := m.Forward(ids[0], false, nil)
		copy(out, y)
		return out, outDim
	}
	d := m.cfg.Embed
	h := m.cfg.Hidden
	tr := &bc.trie
	tr.build(ids, m.Emb.V)
	var x []float64
	if m.Layers[0].table == nil {
		x = m.Emb.gather(growF(&bc.xb, len(tr.tok)*d), tr.tok)
	}
	for _, layer := range m.Layers {
		x = layer.ForwardBatch(x, tr)
	}
	// Gather each lane's final node into example-major rows in request
	// order; the head then writes out in request order directly.
	last := growF(&bc.last, n*h)
	for r, node := range tr.end {
		copy(last[r*h:(r+1)*h], x[node*h:(node+1)*h])
	}
	m.FC.ForwardBatch(out, last, n)
	return out, outDim
}

// Backward implements Model.
func (m *LSTMModel) Backward(ids []int, cacheAny any, dout []float64) {
	if m.frozen {
		panic(frozenBackwardPanic)
	}
	if len(ids) == 0 {
		m.padOne[0] = 0
		ids = m.padOne[:]
	}
	cache := cacheAny.(*lstmModelCache)
	dlast := m.FC.Backward(cache.last, dout)
	h := m.cfg.Hidden
	// Gradient into the top layer arrives only at the last step.
	dh := growF(&m.dtop, len(ids)*h)
	zeroF(dh)
	copy(dh[len(dh)-h:], dlast)
	for l := len(m.Layers) - 1; l >= 0; l-- {
		dh = m.Layers[l].Backward(cache.layerCaches[l], dh)
	}
	m.Emb.Backward(ids, dh)
}

// Params implements Model.
func (m *LSTMModel) Params() []*Param {
	params := m.Emb.Params()
	for _, l := range m.Layers {
		params = append(params, l.Params()...)
	}
	return append(params, m.FC.Params()...)
}
