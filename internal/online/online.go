// Package online closes the serving loop: it tails the durable ingest
// WAL (internal/ingest), fine-tunes the live model on observed
// ground-truth outcomes off the hot path, and promotes the result only
// through a shadow canary gate.
//
// One background worker per model runs the pipeline
//
//	tail WAL → accumulate window → clone live → FineTune →
//	canary eval on held-out slice → gate →
//	Register + Deploy (swap) or drop → post-swap rollback watch
//
// The candidate stays outside the registry until it has been
// evaluated: the canary scores candidate vs live on the window's
// held-out tail (recent real traffic the candidate never trained on),
// and only a candidate that wins by at least Margin is registered and
// swapped in — a rejected one leaves no version, weights or store
// artifact behind, so an unevaluated candidate cannot be deployed.
// After a swap the next window's holdout re-scores the new live
// version against the previous one and deploys the previous version
// back if the swap regressed in production.
//
// Every decision is durable: per-model progress (WAL position,
// counters, rollback watch) persists in the service's store under
// "online/<model>" — a key shape the registry's WarmBoot and syncStore
// ignore as foreign — and the position is persisted only after a
// window's decision commits. A crash mid-window therefore replays the
// same records on restart, and because fine-tuning is sequential
// (Workers=1) with a fixed seed, the replay reproduces the same
// candidate weights and the same gate decision bit for bit.
package online

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/service"
	"repro/internal/workload"
)

// Options configures a Pipeline. Service and Dir are required.
type Options struct {
	// Service is the registry the pipeline trains against: LiveVersion
	// feeds the clone, Register admits gate-cleared candidates, Deploy
	// swaps.
	Service *service.Service
	// Store, when non-nil, makes pipeline progress durable under
	// "online/<model>" keys. Usually the service's own store.
	Store service.Store
	// Dir is the ingest WAL directory to tail.
	Dir string
	// Models limits the pipeline to these models; empty manages every
	// model registered at Start.
	Models []string
	// Window is the number of observed records that triggers a
	// fine-tune (0 means 32; 1 or fewer is an error, since a window must
	// split). Its last quarter (holdout) is held out of training and
	// used for the canary evaluation.
	Window int
	// Margin is the score improvement the candidate must show on the
	// holdout to be swapped in: accuracy points for classification
	// tasks, Huber-loss points for regression. Zero accepts any
	// non-regression; negative force-accepts (tests use this to
	// exercise the rollback watch).
	Margin float64
	// Interval is the tail poll delay at the WAL's live edge
	// (default 200ms).
	Interval time.Duration
	// Config is the fine-tune configuration. Workers is forced to 1 so
	// a window always reproduces the same candidate weights.
	Config core.Config
	// Logf, when set, receives pipeline decisions and failures.
	Logf func(format string, args ...any)
}

// holdout is the fraction of each window held out of training for the
// canary evaluation. Windows hold at least 2 records, so both slices
// are non-empty.
const holdout = 0.25

// state is one model's durable pipeline progress (JSON in the store
// under "online/<model>").
type state struct {
	// Pos is the WAL position up to which windows have been decided.
	Pos ingest.Pos `json:"pos"`
	// Consumed counts this model's observed records read past decided
	// windows.
	Consumed uint64 `json:"consumed"`
	// Windows, Candidates, Swaps, Rollbacks, Rejected count the
	// pipeline's work; LastDecision is the latest gate decision line.
	Windows      uint64 `json:"windows"`
	Candidates   uint64 `json:"candidates"`
	Swaps        uint64 `json:"swaps,omitempty"`
	Rollbacks    uint64 `json:"rollbacks,omitempty"`
	Rejected     uint64 `json:"rejected,omitempty"`
	LastDecision string `json:"last_decision,omitempty"`
	// Watch and Prev arm the rollback watch: after a swap, Watch is
	// the version swapped in and Prev the version it replaced. The
	// next window's holdout re-scores Watch vs Prev.
	Watch int `json:"watch,omitempty"`
	Prev  int `json:"prev,omitempty"`
}

// Pipeline runs one online-learning worker per managed model.
type Pipeline struct {
	opts   Options
	stop   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	states map[string]*state

	closeOnce sync.Once
}

// errPermanent marks a model that can never fine-tune (no neural
// backend); its worker exits instead of retrying.
var errPermanent = errors.New("online: permanent")

// Start launches the pipeline's workers and registers its stats
// provider with the service.
func Start(opts Options) (*Pipeline, error) {
	if opts.Service == nil {
		return nil, errors.New("online: Service is required")
	}
	if opts.Dir == "" {
		return nil, errors.New("online: Dir is required")
	}
	switch {
	case opts.Window == 0:
		opts.Window = 32
	case opts.Window < 2:
		return nil, fmt.Errorf("online: Window %d cannot be split into training and holdout records", opts.Window)
	}
	if opts.Interval <= 0 {
		opts.Interval = 200 * time.Millisecond
	}
	opts.Config.Workers = 1 // sequential fine-tune: bit-deterministic replay
	models := opts.Models
	if len(models) == 0 {
		for _, info := range opts.Service.Models() {
			models = append(models, info.Name)
		}
	}
	p := &Pipeline{
		opts:   opts,
		stop:   make(chan struct{}),
		states: make(map[string]*state, len(models)),
	}
	for _, name := range models {
		st, err := p.loadState(name)
		if err != nil {
			return nil, err
		}
		p.states[name] = st
	}
	opts.Service.SetOnlineStats(p.statsFor)
	for _, name := range models {
		p.wg.Add(1)
		go p.run(name)
	}
	return p, nil
}

// Close stops every worker and waits for in-flight windows to finish
// or abandon. Idempotent.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		p.opts.Service.SetOnlineStats(nil)
	})
	p.wg.Wait()
}

// statsFor is the provider handed to Service.SetOnlineStats: the
// named model's pipeline progress for /v1/stats and the wire stats
// reply.
func (p *Pipeline) statsFor(model string) (service.OnlineStats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.states[model]
	if !ok {
		return service.OnlineStats{}, false
	}
	return service.OnlineStats{
		Consumed:     st.Consumed,
		Windows:      st.Windows,
		Candidates:   st.Candidates,
		Swaps:        st.Swaps,
		Rollbacks:    st.Rollbacks,
		Rejected:     st.Rejected,
		LastDecision: st.LastDecision,
	}, true
}

func stateKey(model string) string { return "online/" + model }

// loadState recovers a model's durable progress; a missing or damaged
// blob starts fresh from the WAL's retained head.
func (p *Pipeline) loadState(model string) (*state, error) {
	st := &state{}
	if p.opts.Store == nil {
		return st, nil
	}
	data, err := p.opts.Store.Get(stateKey(model))
	if err != nil {
		if errors.Is(err, service.ErrNoKey) {
			return st, nil
		}
		return nil, fmt.Errorf("online: load state %q: %w", model, err)
	}
	if err := json.Unmarshal(data, st); err != nil {
		// Damaged state is not fatal: restart from scratch, like a
		// node that never ran the pipeline.
		p.logf("online: %s: damaged state (%v); starting fresh", model, err)
		*st = state{}
	}
	return st, nil
}

// saveState persists st; the caller already holds the authoritative
// copy. No store means no durability, which is fine for tests.
func (p *Pipeline) saveState(model string, st *state) error {
	if p.opts.Store == nil {
		return nil
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return p.opts.Store.Put(stateKey(model), data)
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// sleep waits one poll interval; false means the pipeline is closing.
func (p *Pipeline) sleep() bool {
	select {
	case <-p.stop:
		return false
	case <-time.After(p.opts.Interval):
		return true
	}
}

// run is one model's worker: tail the WAL from the last decided
// position, accumulate observed records into a window, decide it, and
// persist the advance. A failed window (store or deploy hiccup, or a
// crash replayed by the chaos tests) rewinds the reader to the last
// durable position and retries, so decisions are idempotent.
func (p *Pipeline) run(name string) {
	defer p.wg.Done()
	p.mu.Lock()
	st := *p.states[name] // working copy; committed back per decision
	p.mu.Unlock()

	r := ingest.OpenReader(p.opts.Dir, st.Pos)
	defer func() { r.Close() }()
	var window []ingest.Record
	var rec ingest.Record
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		err := r.Next(&rec)
		if errors.Is(err, io.EOF) {
			if !p.sleep() {
				return
			}
			continue
		}
		if err != nil {
			p.logf("online: %s: read ingest log: %v", name, err)
			if !p.sleep() {
				return
			}
			continue
		}
		if rec.Model != name || rec.Kind != ingest.Observed {
			continue
		}
		window = append(window, rec)
		if len(window) < p.opts.Window {
			continue
		}
		err = p.processWindow(name, &st, window, r.Pos())
		switch {
		case err == nil:
			p.commit(name, st)
			window = window[:0]
		case errors.Is(err, errPermanent):
			p.logf("online: %s: stopping trainer: %v", name, err)
			return
		default:
			p.logf("online: %s: window abandoned (will retry): %v", name, err)
			// Rewind to the last durable position; the same records
			// replay into the same window.
			r.Close()
			p.mu.Lock()
			st = *p.states[name]
			p.mu.Unlock()
			r = ingest.OpenReader(p.opts.Dir, st.Pos)
			window = window[:0]
			if !p.sleep() {
				return
			}
		}
	}
}

// commit publishes the worker's decided state to the stats provider.
func (p *Pipeline) commit(name string, st state) {
	p.mu.Lock()
	*p.states[name] = st
	p.mu.Unlock()
}

// processWindow decides one window: rollback watch first, then
// fine-tune → canary gate → register and swap, or reject. st is mutated
// and persisted only when the whole decision commits; any error leaves
// the durable state untouched so the caller can rewind and replay.
func (p *Pipeline) processWindow(name string, st *state, window []ingest.Record, end ingest.Pos) error {
	svc := p.opts.Service
	liveV, liveM, err := svc.LiveVersion(name)
	if err != nil {
		return err
	}
	task := liveM.Task

	holdN := int(float64(len(window))*holdout + 0.5)
	trainItems := toItems(task, window[:len(window)-holdN])
	holdItems := toItems(task, window[len(window)-holdN:])

	// Rollback watch: the previous window swapped Watch in over Prev.
	// Re-score both on this window's holdout — traffic neither has
	// trained on — and undo the swap if it regressed in production.
	// Like the canary below, each is scored on a private frozen replica,
	// never on the registry's shared snapshot.
	if st.Watch != 0 && st.Watch == liveV && st.Prev != 0 {
		prevM, err := svc.VersionModel(name, st.Prev)
		if err == nil {
			liveScore := score(task, liveM.Replicate(), holdItems)
			prevScore := score(task, prevM.Replicate(), holdItems)
			margin := p.opts.Margin
			if margin < 0 {
				margin = 0
			}
			if prevScore > liveScore+margin {
				if _, err := svc.Deploy(name, st.Prev); err != nil {
					return fmt.Errorf("rollback deploy: %w", err)
				}
				st.Rollbacks++
				st.Windows++
				st.Consumed += uint64(len(window))
				st.LastDecision = fmt.Sprintf(
					"rolled back v%d → v%d (live %.4f vs prev %.4f on %d held out)",
					st.Watch, st.Prev, liveScore, prevScore, len(holdItems))
				p.logf("online: %s: %s", name, st.LastDecision)
				st.Watch, st.Prev = 0, 0
				st.Pos = end
				return p.saveState(name, st)
			}
		}
		// Confirmed (or the previous version is gone): disarm.
		st.Watch, st.Prev = 0, 0
	}

	// Fine-tune a private clone of the live snapshot off the hot path.
	cand, err := core.FineTune(liveM.Snapshot(), trainItems, p.opts.Config)
	if err != nil {
		return fmt.Errorf("%w: %v", errPermanent, err)
	}
	st.Candidates++

	// Shadow canary: score candidate vs live on the held-out tail.
	// Replicate gives each eval a private scratch so the shared
	// registry snapshot is never touched concurrently.
	candScore := score(task, cand.Replicate(), holdItems)
	liveScore := score(task, liveM.Replicate(), holdItems)
	st.Windows++
	st.Consumed += uint64(len(window))
	if candScore >= liveScore+p.opts.Margin {
		// Only a candidate that cleared the gate enters the registry: a
		// rejected one would otherwise keep its version slot, weights and
		// store artifact for good (GC runs on deploy only).
		info, err := svc.Register(name, cand)
		if err != nil {
			return fmt.Errorf("register candidate: %w", err)
		}
		if _, err := svc.Deploy(name, info.Version); err != nil {
			return fmt.Errorf("swap deploy: %w", err)
		}
		st.Swaps++
		st.Prev, st.Watch = liveV, info.Version
		st.LastDecision = fmt.Sprintf(
			"swapped v%d → v%d (candidate %.4f vs live %.4f on %d held out)",
			liveV, info.Version, candScore, liveScore, len(holdItems))
	} else {
		st.Rejected++
		st.LastDecision = fmt.Sprintf(
			"rejected candidate (%.4f vs live v%d %.4f, margin %.4f)",
			candScore, liveV, liveScore, p.opts.Margin)
	}
	p.logf("online: %s: %s", name, st.LastDecision)
	st.Pos = end
	return p.saveState(name, st)
}

// score is the canary's scalar: higher is better on both task kinds
// (accuracy for classification, negated Huber loss for regression).
func score(task core.Task, m *core.Model, hold []workload.Item) float64 {
	if task.IsClassification() {
		return core.EvaluateClassifier(m, task, hold).Accuracy
	}
	return -core.EvaluateRegressor(m, task, hold).Loss
}

// toItems converts WAL records into labeled workload items for the
// live model's task. Only the task's own label field is populated —
// the WAL stores one outcome per record.
func toItems(task core.Task, recs []ingest.Record) []workload.Item {
	items := make([]workload.Item, len(recs))
	for i, r := range recs {
		items[i] = task.Item(r.Statement, int(r.Class), r.Value)
	}
	return items
}
