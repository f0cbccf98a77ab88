// Package service is the deployment layer over serve.Predictor: a
// named, versioned model registry whose entries are immutable
// core.Model snapshots, each served by a replica pool that can be
// hot-swapped atomically.
//
// The paper's predictions only earn their keep inside a long-lived
// database front-end: models must answer under request deadlines and
// be redeployable — fine-tuned on fresh workload, swapped in — without
// downtime. Register stores an immutable snapshot (deep weight copy,
// so FineTune on the caller's model can never reach a served replica);
// Deploy starts a serve.Predictor pool over a chosen version and swaps
// it live; requests racing a swap retry transparently onto the new
// pool, so no request is dropped and every request runs entirely on
// one snapshot's weights — results are never a mix of two versions.
//
// With a Store configured, the registry is durable: Register writes
// each snapshot through internal/artifact as a checksummed binary
// blob, Deploy records the live version, and WarmBoot replays the
// store after a restart — every version is reloadable (rollback works
// across restarts) and the reloaded models predict bit-identically to
// the process that trained them.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// ErrNotFound is returned for operations on a model name that was
// never registered.
var ErrNotFound = errors.New("service: model not found")

// ErrNotDeployed is returned for predictions against a registered
// model with no live version.
var ErrNotDeployed = errors.New("service: model not deployed")

// ErrClosed is returned for any operation after Service.Close. It
// wraps serve.ErrClosed so one errors.Is sentinel covers "closed"
// at either layer (the facade exports exactly that).
var ErrClosed = fmt.Errorf("service: closed: %w", serve.ErrClosed)

// ErrNoIngest is returned by Observe on a service configured without
// an ingest log (Options.Ingest nil). Transports map it onto 400: the
// node cannot accept feedback, and retrying will not change that.
var ErrNoIngest = errors.New("service: no ingest log configured")

// Options configures a Service.
type Options struct {
	// Serve is the replica-pool template every deployed version runs
	// (replica count, waiting bound, batching, admission policy). Each
	// model gets its own pool from it, so the waiting bound and the
	// rejection count are per model while the values are service-wide.
	Serve serve.Options
	// Store, when non-nil, makes the registry durable: every Register
	// persists the snapshot's artifact, every Deploy persists the live
	// version, and WarmBoot reloads both after a restart. nil keeps the
	// registry memory-only.
	Store Store
	// Retain, when > 0, is the model GC retention policy: after every
	// Deploy/Swap the registry keeps only the newest Retain versions of
	// the deployed model plus whichever version is live, deleting the
	// rest from memory and the store. Pruned version numbers are never
	// reused. <= 0 keeps every version forever (the pre-GC behavior).
	Retain int
	// Ingest, when non-nil, is the durable request log: every Observe
	// appends its ground-truth outcome, and successful predicts are
	// sampled into it under IngestEvery. The log feeds the online
	// fine-tune pipeline (internal/online) and workload replay.
	Ingest *ingest.WAL
	// IngestEvery samples every Nth successful predict into the ingest
	// log (1 = every predict, 0 or negative = no predict sampling).
	// Counter-based, so the sample is deterministic and the hot path
	// stays allocation-free. Observe records are never sampled — ground
	// truth is always logged.
	IngestEvery int
}

// ModelInfo describes one registered model at one version.
type ModelInfo struct {
	// Name is the registry key the model was registered under.
	Name string `json:"name"`
	// Model is the underlying predictor kind (ccnn, wlstm, ...).
	Model string `json:"model"`
	// Task is the prediction task the model was trained for.
	Task string `json:"task"`
	// Classification reports whether the task has class labels.
	Classification bool `json:"classification"`
	// Version is this snapshot's registry version (1-based).
	Version int `json:"version"`
	// Versions is the highest version number ever registered. Available
	// counts the versions actually deployable — quarantined or
	// GC-pruned versions leave permanent holes between the two.
	Versions  int `json:"versions"`
	Available int `json:"available"`
	// Live reports whether this version is currently serving; for
	// registry listings LiveVersion is the deployed version (0 = none).
	Live        bool `json:"live"`
	LiveVersion int  `json:"live_version"`
}

// Prediction is one task-appropriate prediction with its provenance:
// the registry name and snapshot version that produced it.
type Prediction struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Classification results. Class is always present for
	// classification (0 is a legitimate class); Probs is omitted for
	// regression models.
	Classification bool      `json:"classification"`
	Class          int       `json:"class"`
	Probs          []float64 `json:"probs,omitempty"`
	// Regression results: log-space and original-unit values (always
	// present; 0 is a legitimate prediction).
	Log float64 `json:"log"`
	Raw float64 `json:"raw"`
}

// livePool is one deployed version: a predictor pool bound to an
// immutable snapshot. Swaps replace the whole struct atomically.
type livePool struct {
	version int
	pred    *serve.Predictor
}

// entry is one registry slot: the append-only version history plus the
// atomically swappable live pool.
//
// versions is indexed by version-1 and may hold nil holes: a
// quarantined (corrupt-at-boot) or GC-pruned version keeps its slot so
// version numbers are never reused, but can no longer be deployed.
type entry struct {
	name string
	task core.Task
	kind string // underlying model name (ccnn, ...)

	mu       sync.Mutex // serializes Register version-append and Deploy
	versions []*core.Model
	live     atomic.Pointer[livePool]
	// gen is the generation of the entry's current deployment — the
	// cluster tie-breaker. A local Deploy persists gen+1 in its live
	// marker; a store replay (replay.apply) adopts a marker only when
	// its generation exceeds this one or nothing is live, so a node's
	// own explicit deploys win ties against anything it merely
	// observed. Guarded by mu.
	gen int64
}

// latest returns the highest available (non-hole) version, 0 if none.
func (e *entry) latest() int {
	for v := len(e.versions); v > 0; v-- {
		if e.versions[v-1] != nil {
			return v
		}
	}
	return 0
}

// available counts non-hole versions.
func (e *entry) available() int {
	n := 0
	for _, m := range e.versions {
		if m != nil {
			n++
		}
	}
	return n
}

// version returns the snapshot registered as version v, nil when v was
// never registered or is a hole.
func (e *entry) version(v int) *core.Model {
	if v < 1 || v > len(e.versions) {
		return nil
	}
	return e.versions[v-1]
}

// swapLive starts a replica pool over version from the service's pool
// template and swaps it in atomically; the previous pool finishes its
// in-flight requests and is closed. Every pool is born here. Callers
// hold e.mu and have checked that the version is intact and, under
// that lock, that the service is not closed — so a pool can never be
// born after Close tore the others down.
func (e *entry) swapLive(version int, opts serve.Options) {
	next := &livePool{
		version: version,
		pred:    serve.NewPredictor(e.versions[version-1], opts),
	}
	if prev := e.live.Swap(next); prev != nil {
		prev.pred.Close() // drains in-flight requests before returning
	}
}

// Service is a concurrent, versioned model registry and prediction
// front door. All methods are safe for concurrent use.
type Service struct {
	opts Options

	// ready reports warm-boot completion for the health endpoint: a
	// store-backed service is not ready until WarmBoot has replayed the
	// store (predictions against already-deployed models work either
	// way; readiness is the load balancer's signal).
	ready atomic.Bool

	// boot is the completed warm boot's report, surfaced through
	// /v1/healthz so a degraded (quarantining) boot is observable.
	boot atomic.Pointer[Report]

	// Ingest-log counters: the predict-sampling clock and the
	// service-side view of what reached (or failed to reach) the log.
	ingestN        atomic.Uint64
	ingestSampled  atomic.Uint64
	ingestObserved atomic.Uint64
	ingestDropped  atomic.Uint64

	// onlineStats, when set, supplies the online pipeline's per-model
	// state for StatsSnapshot (SetOnlineStats).
	onlineStats atomic.Pointer[func(model string) (OnlineStats, bool)]

	mu      sync.RWMutex // guards entries map and closed
	entries map[string]*entry
	closed  bool
}

// New creates an empty Service. A store-backed service (Options.Store
// non-nil) should WarmBoot next — it replays previously persisted
// models and flips the service ready; without a store the service is
// born ready.
func New(opts Options) *Service {
	s := &Service{opts: opts, entries: make(map[string]*entry)}
	s.ready.Store(opts.Store == nil)
	return s
}

// isReady reports whether the service finished warm-booting and is not
// closed — the /v1/healthz contract.
func (s *Service) isReady() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ready.Load() && !s.closed
}

// Register stores an immutable snapshot of m under name and returns
// its info. The first Register fixes the entry's task and model kind;
// later versions must match both (a registry name is one predictor
// contract, not a grab bag). Registering does not serve the version —
// call Deploy (or Swap, which does both).
//
// On a store-backed service the snapshot's artifact is persisted
// before the version becomes visible; a persistence failure (including
// registering a model kind the artifact format cannot serialize) fails
// the Register, so the store and the in-memory registry never
// disagree.
func (s *Service) Register(name string, m *core.Model) (ModelInfo, error) {
	if name == "" {
		return ModelInfo{}, errors.New("service: register: empty model name")
	}
	if m == nil {
		return ModelInfo{}, fmt.Errorf("service: register %q: nil model", name)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ModelInfo{}, ErrClosed
	}
	e, ok := s.entries[name]
	if !ok {
		e = &entry{name: name, task: m.Task, kind: m.Name}
		s.entries[name] = e
	}
	s.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if m.Task != e.task || m.Name != e.kind {
		return ModelInfo{}, fmt.Errorf("service: register %q: got %s/%s, registry entry is %s/%s",
			name, m.Name, m.Task, e.kind, e.task)
	}
	snap := m.Snapshot()
	snap.Version = len(e.versions) + 1
	if s.opts.Store != nil {
		data, err := artifact.Encode(snap)
		if err != nil {
			return ModelInfo{}, fmt.Errorf("service: register %q: %w", name, err)
		}
		if err := s.opts.Store.Put(artifactKey(name, snap.Version), data); err != nil {
			return ModelInfo{}, fmt.Errorf("service: register %q: persist v%d: %w", name, snap.Version, err)
		}
	}
	e.versions = append(e.versions, snap)
	return e.info(snap.Version), nil
}

// Deploy makes the given version of name live, starting a fresh
// replica pool over its snapshot and atomically swapping it in; the
// previous pool finishes its in-flight requests and is closed.
// version <= 0 selects the latest. The pool runs the service-wide
// template (Options.Serve). Requests racing the swap retry onto the
// new pool, so a deploy drops nothing.
//
// On a store-backed service the live version is persisted before the
// swap, so a later WarmBoot redeploys exactly this deployment.
func (s *Service) Deploy(name string, version int) (ModelInfo, error) {
	e, err := s.entry(name)
	if err != nil {
		return ModelInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.available() == 0 {
		return ModelInfo{}, fmt.Errorf("service: deploy %q: no registered versions", name)
	}
	if version <= 0 {
		version = e.latest()
	}
	if version > len(e.versions) {
		return ModelInfo{}, fmt.Errorf("service: deploy %q: version %d not registered (have 1..%d)",
			name, version, len(e.versions))
	}
	if e.versions[version-1] == nil {
		return ModelInfo{}, fmt.Errorf("service: deploy %q: version %d is no longer available (quarantined or GC-pruned)",
			name, version)
	}
	// Double-check closed under the entry lock so a pool can never be
	// born after Close tore the others down.
	if s.isClosed() {
		return ModelInfo{}, ErrClosed
	}
	// Persist intent first: if the marker cannot be written the old
	// pool keeps serving and the store never claims a deployment that
	// did not happen. The marker carries the next generation: in a
	// shared store this is what lets other nodes' syncStore adopt the
	// deploy, and what makes this node's own deploys win generation
	// ties against markers it merely observed.
	if s.opts.Store != nil {
		rec, err := json.Marshal(liveRecord{Version: version, Gen: e.gen + 1})
		if err != nil {
			return ModelInfo{}, fmt.Errorf("service: deploy %q: %w", name, err)
		}
		if err := s.opts.Store.Put(liveKey(name), rec); err != nil {
			return ModelInfo{}, fmt.Errorf("service: deploy %q: persist live marker: %w", name, err)
		}
	}
	e.gen++
	e.swapLive(version, s.opts.Serve)
	// Retention is enforced at the moment history grows stale — best
	// effort: a store hiccup during pruning must not undo a deploy that
	// already succeeded (GC() retries it on demand).
	s.gcEntryLocked(e)
	return e.info(version), nil
}

// Swap registers m as a new version and deploys it in one step — the
// FineTune → redeploy one-liner.
func (s *Service) Swap(name string, m *core.Model) (ModelInfo, error) {
	info, err := s.Register(name, m)
	if err != nil {
		return ModelInfo{}, err
	}
	return s.Deploy(name, info.Version)
}

// Predict runs the task-appropriate prediction for name's live
// version: class distribution and argmax for classification models,
// log- and raw-space values for regression models. ctx bounds the
// whole request (admission and the wait for a replica included).
func (s *Service) Predict(ctx context.Context, name, stmt string) (Prediction, error) {
	return s.PredictInto(ctx, name, stmt, nil)
}

// PredictInto is Predict with caller-owned result storage: for
// classification models the class distribution is written into probs
// (grown only when its capacity is insufficient) and the returned
// Prediction's Probs aliases it. With a capacity-sufficient probs the
// warm path performs zero allocations — the contract the binary wire
// transport's hot path is built on. Callers that retain the result
// across calls must copy Probs.
func (s *Service) PredictInto(ctx context.Context, name, stmt string, probs []float64) (Prediction, error) {
	var pr Prediction
	err := s.onLive(name, func(e *entry, lp *livePool) (err error) {
		pr, err = predictOn(ctx, lp, e, stmt, probs)
		return err
	})
	if err != nil {
		return Prediction{}, err
	}
	s.sampleIngest(stmt, &pr)
	return pr, nil
}

// PredictBatch runs one prediction per statement, fanning the work
// across the live pool's replicas, and returns the results in input
// order. Like Predict, a batch racing a hot swap retries onto the new
// pool; a completed batch comes entirely from one snapshot.
func (s *Service) PredictBatch(ctx context.Context, name string, stmts []string) ([]Prediction, error) {
	var out []Prediction
	err := s.onLive(name, func(e *entry, lp *livePool) (err error) {
		out, err = predictBatchOn(ctx, lp, e, stmts)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		s.sampleIngest(stmts[i], &out[i])
	}
	return out, nil
}

// onLive runs fn against name's live pool. A pool that closes
// underneath fn was either swapped by a concurrent Deploy — fn retries
// on the replacement, so a deploy drops no request — or torn down by
// Close, which is reported as ErrClosed. fn is only called, never
// retained, so callers' closures stay on their stacks (the predict hot
// path's 0-alloc contract).
func (s *Service) onLive(name string, fn func(e *entry, lp *livePool) error) error {
	e, err := s.entry(name)
	if err != nil {
		return err
	}
	for {
		lp := e.live.Load()
		if lp == nil {
			return ErrNotDeployed
		}
		err := fn(e, lp)
		if err == nil || !errors.Is(err, serve.ErrClosed) {
			return err
		}
		if e.live.Load() == lp {
			return ErrClosed
		}
	}
}

// predictOn runs one prediction against a specific live pool, writing
// classification probabilities into dst (grown as needed).
func predictOn(ctx context.Context, lp *livePool, e *entry, stmt string, dst []float64) (Prediction, error) {
	pr := Prediction{Name: e.name, Version: lp.version, Classification: e.task.IsClassification()}
	if pr.Classification {
		probs, err := lp.pred.ProbsIntoCtx(ctx, stmt, dst[:0])
		if err != nil {
			return Prediction{}, err
		}
		pr.Probs = probs
		pr.Class = argmax(probs)
		return pr, nil
	}
	v, err := lp.pred.PredictLogCtx(ctx, stmt)
	if err != nil {
		return Prediction{}, err
	}
	pr.Log = v
	pr.Raw = metrics.InverseLogTransform(v, lp.pred.Model().LogMin)
	return pr, nil
}

// predictBatchOn runs one batch against a specific live pool through
// the serving layer's batch methods (a batch longer than MaxBatch
// borrows several replicas side by side).
func predictBatchOn(ctx context.Context, lp *livePool, e *entry, stmts []string) ([]Prediction, error) {
	out := make([]Prediction, len(stmts))
	if e.task.IsClassification() {
		probs, err := lp.pred.ProbsBatchCtx(ctx, stmts)
		if err != nil {
			return nil, err
		}
		for i, p := range probs {
			out[i] = Prediction{
				Name: e.name, Version: lp.version, Classification: true,
				Probs: p, Class: argmax(p),
			}
		}
		return out, nil
	}
	logs, err := lp.pred.PredictLogBatchCtx(ctx, stmts)
	if err != nil {
		return nil, err
	}
	logMin := lp.pred.Model().LogMin
	for i, v := range logs {
		out[i] = Prediction{
			Name: e.name, Version: lp.version,
			Log: v, Raw: metrics.InverseLogTransform(v, logMin),
		}
	}
	return out, nil
}

// sampleIngest appends every IngestEvery-th successful prediction to
// the ingest log as a Predicted record. Allocation-free: the counter
// is atomic, the record is stack-built, and the WAL reuses its encode
// buffer — the predict hot path's 0-alloc contract holds with sampling
// enabled.
func (s *Service) sampleIngest(stmt string, pr *Prediction) {
	if s.opts.Ingest == nil || s.opts.IngestEvery <= 0 {
		return
	}
	if s.ingestN.Add(1)%uint64(s.opts.IngestEvery) != 0 {
		return
	}
	if s.logIngest(ingest.Predicted, pr.Name, stmt, pr.Class, pr.Log) == nil {
		s.ingestSampled.Add(1)
	}
}

// Observe appends a ground-truth outcome for a served statement to the
// ingest log: the classification label in class, or the regression
// label (raw units) in value. Observed records are what the online
// pipeline fine-tunes and canary-gates on. The model must be
// registered; the service must have an ingest log (ErrNoIngest
// otherwise). A class outside [0, NumClasses) of a classification
// model matches ErrBadRequest and is not logged: no learner could
// train on it.
func (s *Service) Observe(name, stmt string, class int, value float64) error {
	if s.opts.Ingest == nil {
		return ErrNoIngest
	}
	e, err := s.entry(name)
	if err != nil {
		return err
	}
	if n := e.task.NumClasses(); e.task.IsClassification() && (class < 0 || class >= n) {
		return badRequestError{fmt.Errorf("service: observe %q: class %d outside [0, %d)", name, class, n)}
	}
	if err := s.logIngest(ingest.Observed, name, stmt, class, value); err != nil {
		return fmt.Errorf("service: observe %q: %w", name, err)
	}
	s.ingestObserved.Add(1)
	return nil
}

// logIngest appends one record to the ingest log, counting a failed
// append as dropped.
func (s *Service) logIngest(kind ingest.Kind, model, stmt string, class int, value float64) error {
	err := s.opts.Ingest.Append(ingest.Record{
		Time:      time.Now().UnixNano(),
		Kind:      kind,
		Model:     model,
		Statement: stmt,
		Class:     int32(class),
		Value:     value,
	})
	if err != nil {
		s.ingestDropped.Add(1)
	}
	return err
}

// LiveVersion returns name's live deployment: its version number and
// the registry's immutable snapshot of it. The snapshot is shared —
// callers must not mutate it (Snapshot or Replicate first). This is
// the online trainer's handle on "what is serving right now".
func (s *Service) LiveVersion(name string) (int, *core.Model, error) {
	e, err := s.entry(name)
	if err != nil {
		return 0, nil, err
	}
	lp := e.live.Load()
	if lp == nil {
		return 0, nil, ErrNotDeployed
	}
	e.mu.Lock()
	m := e.version(lp.version)
	e.mu.Unlock()
	if m == nil {
		return 0, nil, ErrNotDeployed
	}
	return lp.version, m, nil
}

// VersionModel returns the registry's immutable snapshot of a specific
// registered version, or ErrNotFound if that version was never
// registered, was quarantined, or has been GC-pruned. Like
// LiveVersion's model, the snapshot is shared — callers must not
// mutate it. The online pipeline's rollback watch uses this to score
// the previous live version against the one it swapped in.
func (s *Service) VersionModel(name string, version int) (*core.Model, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	m := e.version(version)
	e.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("%w: %q version %d", ErrNotFound, name, version)
	}
	return m, nil
}

// SetOnlineStats registers the online pipeline's per-model state
// provider, surfaced through StatsSnapshot (and so through GET
// /v1/stats and the wire stats reply on both transports). nil
// unregisters.
func (s *Service) SetOnlineStats(provider func(model string) (OnlineStats, bool)) {
	if provider == nil {
		s.onlineStats.Store(nil)
		return
	}
	s.onlineStats.Store(&provider)
}

// Models lists every registered entry (sorted by name), reporting its
// version count and live version.
func (s *Service) Models() []ModelInfo {
	s.mu.RLock()
	entries := s.entriesLocked()
	s.mu.RUnlock()
	infos := make([]ModelInfo, len(entries))
	for i, e := range entries {
		e.mu.Lock()
		infos[i] = e.info(0)
		e.mu.Unlock()
	}
	return infos
}

// Close tears the registry down: every live pool is closed (requests
// running on a replica finish first), and all further operations
// return ErrClosed. Idempotent and safe under concurrent callers.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	entries := s.entriesLocked()
	s.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock() // no Deploy can race a new pool in (it re-checks closed)
		if lp := e.live.Load(); lp != nil {
			lp.pred.Close()
		}
		e.mu.Unlock()
	}
}

// GCResult is one model's outcome of a retention pass.
type GCResult struct {
	// Name is the registry entry the pass ran over.
	Name string `json:"name"`
	// Removed lists the version numbers pruned (memory and store).
	Removed []int `json:"removed,omitempty"`
	// Retained counts the versions still available after the pass.
	Retained int `json:"retained"`
}

// GC enforces the retention policy (Options.Retain) across every
// registered model right now: each entry keeps its newest Retain
// versions plus whichever version is live; everything older is deleted
// from memory and the store, leaving permanent holes (version numbers
// are never reused). With Retain <= 0 it is a no-op. Deploy and Swap
// run the same pass automatically on the model they deploy; this
// method exists for the admin endpoint and for catching up after a
// Retain change.
func (s *Service) GC() ([]GCResult, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	entries := s.entriesLocked()
	s.mu.RUnlock()
	results := make([]GCResult, 0, len(entries))
	var firstErr error
	for _, e := range entries {
		e.mu.Lock()
		res, err := s.gcEntryLocked(e)
		e.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results = append(results, res)
	}
	return results, firstErr
}

// gcEntryLocked prunes one entry to the retention policy. Caller holds
// e.mu. The in-memory version is dropped only after the store delete
// succeeds, so the store never references a model the registry cannot
// also serve; a failed store delete leaves that version fully intact
// for the next pass.
func (s *Service) gcEntryLocked(e *entry) (GCResult, error) {
	res := GCResult{Name: e.name, Retained: e.available()}
	retain := s.opts.Retain
	if retain <= 0 {
		return res, nil
	}
	liveV := 0
	if lp := e.live.Load(); lp != nil {
		liveV = lp.version
	}
	kept := 0
	var firstErr error
	for v := len(e.versions); v >= 1; v-- {
		if e.versions[v-1] == nil {
			continue
		}
		if v == liveV || kept < retain {
			kept++
			continue
		}
		if s.opts.Store != nil {
			if err := s.opts.Store.Delete(artifactKey(e.name, v)); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("service: gc %q v%d: %w", e.name, v, err)
				}
				kept++ // still present everywhere; retry next pass
				continue
			}
		}
		e.versions[v-1] = nil
		res.Removed = append(res.Removed, v)
	}
	res.Retained = e.available()
	sort.Ints(res.Removed)
	return res, firstErr
}

// Store key schema. Artifact blobs live under "v<version>/<name>",
// live-deployment markers under "live/<name>"; the version segment is
// numeric, so the two namespaces cannot collide whatever the model
// name contains.
func artifactKey(name string, version int) string {
	return "v" + strconv.Itoa(version) + "/" + name
}

func liveKey(name string) string { return "live/" + name }

// parseKey classifies a store key: an artifact key yields (name,
// version, true, true); a live marker yields (name, 0, false, true).
// Foreign keys report ok == false and are ignored by WarmBoot.
func parseKey(key string) (name string, version int, isArtifact, ok bool) {
	head, rest, found := strings.Cut(key, "/")
	if !found || rest == "" {
		return "", 0, false, false
	}
	if head == "live" {
		return rest, 0, false, true
	}
	if len(head) < 2 || head[0] != 'v' {
		return "", 0, false, false
	}
	v, err := strconv.Atoi(head[1:])
	if err != nil || v <= 0 {
		return "", 0, false, false
	}
	return rest, v, true, true
}

// liveRecord is the persisted live-deployment marker: which version
// serves, at which deployment generation (the shared-store
// tie-breaker; see entry.gen).
type liveRecord struct {
	Version int   `json:"version"`
	Gen     int64 `json:"gen,omitempty"`
}

// quarantinePrefix parks blobs a replay pass classified as damaged.
// Quarantined keys are invisible to parseKey (so later boots ignore
// them) but preserved verbatim for offline forensics.
const quarantinePrefix = "quarantine/"

// WarmBoot replays the configured store into an empty registry: every
// persisted version is decoded (checksums verified) and reinstalled
// under its original version number, and each model's recorded live
// deployment is restarted at the marker's generation, the marker left
// as written. It is the first run of the pass syncStore repeats
// (replay.go), so a rebooted node re-adopts the cluster's generation
// rather than minting one. On success /v1/healthz reports ready.
// Models never deployed stay registered but cold, exactly as before
// the restart; rollback to any persisted version keeps working because
// all intact versions are reloaded, not just the live ones. Retention
// is not enforced here: the next Deploy or GC() catches up.
//
// WarmBoot survives damage instead of dying of it. A corrupt,
// truncated, or mislabeled artifact is moved under the quarantine/
// prefix and its version becomes a permanent hole; the rest of the
// model's history still loads. A corrupt live marker — or one pointing
// at a quarantined version — falls back to the model's highest intact
// version through Deploy. Only infrastructure failures (the store
// itself erroring) abort the boot; data damage degrades it, and the
// Report says exactly how.
//
// Without a store WarmBoot only flips the service ready. It must run
// before the first Register (the registry must be empty so persisted
// version numbers cannot collide with fresh ones).
func (s *Service) WarmBoot() (*Report, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if len(s.entries) != 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: warm boot requires an empty registry (%d entries present)", len(s.entries))
	}
	s.mu.Unlock()
	rep := &Report{}
	if s.opts.Store != nil {
		if err := (&replay{s: s, boot: true, rep: rep}).run(); err != nil {
			return nil, fmt.Errorf("service: warm boot: %w", err)
		}
	}
	s.ready.Store(true)
	s.boot.Store(rep)
	return rep, nil
}

// isClosed reports whether Close has run.
func (s *Service) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// entriesLocked snapshots the registry's entries in name order. Caller
// holds s.mu.
func (s *Service) entriesLocked() []*entry {
	entries := make([]*entry, 0, len(s.entries))
	for _, name := range sortedKeys(s.entries) {
		entries = append(entries, s.entries[name])
	}
	return entries
}

// entry looks a registry slot up.
func (s *Service) entry(name string) (*entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	e, ok := s.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// info builds a ModelInfo for the given version (0 = describe the
// entry as a whole). Callers hold e.mu or tolerate a racy Versions.
func (e *entry) info(version int) ModelInfo {
	liveV := 0
	if lp := e.live.Load(); lp != nil {
		liveV = lp.version
	}
	if version == 0 {
		version = len(e.versions)
	}
	return ModelInfo{
		Name: e.name, Model: e.kind, Task: e.task.String(),
		Classification: e.task.IsClassification(),
		Version:        version, Versions: len(e.versions), Available: e.available(),
		Live: liveV == version && liveV != 0, LiveVersion: liveV,
	}
}

// argmax matches core.Model.PredictClass's tie-breaking (first max).
func argmax(p []float64) int {
	best := 0
	for c := range p {
		if p[c] > p[best] {
			best = c
		}
	}
	return best
}
