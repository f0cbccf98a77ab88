// Package repro is a Go reproduction of "Facilitating SQL Query
// Composition and Analysis" (Zolaktaf, Milani, Pottinger; SIGMOD 2020).
//
// The library predicts properties of a SQL query prior to execution —
// its error class, answer size, CPU time, and the class of client that
// wrote it — from the raw statement text alone, using models trained on
// a large query workload. No access to the database instance,
// statistics, or execution plans is required (the paper's central
// constraint).
//
// This facade re-exports the primary API; the full surface lives in the
// internal packages:
//
//	internal/sqllex      character/word tokenizers
//	internal/sqlparse    SQL parser and the 10 syntactic properties
//	internal/simdb       execution simulator (catalogs, labels, optimizer)
//	internal/synth       SDSS-like and SQLShare-like workload generators
//	internal/workload    extraction pipeline, splits, workload analysis
//	internal/nn          LSTM/CNN engine with Adam/AdaMax
//	internal/textfeat    n-gram TF-IDF + logistic/Huber regression
//	internal/core        model registry and training pipeline
//	internal/experiments every table and figure of the evaluation
//
// Quickstart:
//
//	w := repro.GenerateSDSS(5000, 1)
//	split := repro.SplitRandom(w.Items, 1)
//	model, _ := repro.Train("ccnn", repro.AnswerSizePrediction, split.Train, repro.DefaultConfig())
//	rows := model.PredictRaw("SELECT * FROM PhotoObj WHERE r < 22")
//
// For serving, the recommended front door is the Service: a named,
// versioned registry of immutable model snapshots served by replica
// pools, with context-aware predictions and zero-downtime hot swaps:
//
//	svc := repro.NewService(repro.ServiceOptions{Serve: repro.ServeOptions{Replicas: 8}})
//	defer svc.Close()
//	svc.Swap("answer-size", model) // register v1 + deploy
//	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer cancel()
//	pred, err := svc.Predict(ctx, "answer-size", "SELECT * FROM PhotoObj WHERE r < 22")
//
// cmd/serviced exposes the same Service over HTTP/JSON.
package repro

import (
	"math/rand"
	"net/http"

	"repro/client"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/sqlparse"
	"repro/internal/synth"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Task identifies one of the paper's four query facilitation problems.
type Task = core.Task

// The four tasks of Definition 4.
const (
	ErrorClassification   = core.ErrorClassification
	CPUTimePrediction     = core.CPUTimePrediction
	AnswerSizePrediction  = core.AnswerSizePrediction
	SessionClassification = core.SessionClassification
	ElapsedTimePrediction = core.ElapsedTimePrediction
)

// Model is a trained query-property predictor.
type Model = core.Model

// Config holds model and training hyper-parameters.
type Config = core.Config

// Workload is an extracted query workload.
type Workload = workload.Workload

// Item is one unique statement with its aggregated labels.
type Item = workload.Item

// Split is a train/validation/test partition.
type Split = workload.Split

// Features are the ten syntactic properties of Section 4.3.1.
type Features = sqlparse.Features

// ModelNames lists every model in the paper's comparison.
var ModelNames = core.ModelNames

// DefaultConfig returns the scaled-down defaults of the experiment
// harness (paper hyper-parameters: lr 1e-3, batch 16, AdaMax, Huber).
func DefaultConfig() Config { return core.DefaultConfig() }

// Train fits the named model for a task on training items.
func Train(name string, task Task, train []Item, cfg Config) (*Model, error) {
	return core.Train(name, task, train, cfg)
}

// Analyze extracts the ten syntactic properties of a statement.
func Analyze(stmt string) Features { return sqlparse.ExtractFeatures(stmt) }

// GenerateSDSS produces an SDSS-like workload with the given number of
// user sessions.
func GenerateSDSS(sessions int, seed int64) *Workload {
	return synth.NewSDSS(synth.SDSSConfig{Sessions: sessions, HitsPerSessionMax: 3, Seed: seed}).Generate()
}

// GenerateSQLShare produces a SQLShare-like workload with per-user
// schemas.
func GenerateSQLShare(users, queriesPerUser int, seed int64) *Workload {
	return synth.NewSQLShare(synth.SQLShareConfig{Users: users, QueriesPerUser: queriesPerUser, Seed: seed}).Generate()
}

// SplitRandom partitions items 80/10/10 at random (Homogeneous
// settings).
func SplitRandom(items []Item, seed int64) Split {
	return workload.RandomSplit(items, 0.1, 0.1, rand.New(rand.NewSource(seed)))
}

// SplitByUser partitions items by user so train and test schemas are
// disjoint (the Heterogeneous Schema setting).
func SplitByUser(items []Item, seed int64) Split {
	return workload.UserSplit(items, 0.1, 0.1, rand.New(rand.NewSource(seed)))
}

// Predictor is a concurrent prediction service over a trained Model: a
// pool of shared-weight inference replicas that callers borrow — a
// caller's batch is one request and runs as one batched forward pass on
// one replica, on the caller's goroutine — returning results
// bit-identical to direct Model calls.
type Predictor = serve.Predictor

// ServeOptions configures NewPredictor (replica count, how many
// requests may wait for a replica, the most statements one request
// carries, admission policy).
type ServeOptions = serve.Options

// ServeStats is a point-in-time snapshot of a Predictor's service
// metrics (throughput, p50/p99 latency, requests waiting).
type ServeStats = serve.Stats

// NewPredictor wraps a trained model in a concurrent prediction
// service. Close the predictor when done: calls holding a replica
// finish, later and waiting ones return ErrClosed.
func NewPredictor(m *Model, opts ServeOptions) *Predictor {
	return serve.NewPredictor(m, opts)
}

// AdmissionPolicy selects what a Predictor's prediction methods do
// when no replica is idle and QueueSize requests are already waiting.
type AdmissionPolicy = serve.AdmissionPolicy

// The admission policies: block (backpressure, the default) or reject
// with ErrQueueFull (bounded worst-case latency).
const (
	AdmitBlock  = serve.AdmitBlock
	AdmitReject = serve.AdmitReject
)

// Serving-layer sentinel errors.
var (
	// ErrClosed is returned for predictions against a closed Predictor
	// or Service.
	ErrClosed = serve.ErrClosed
	// ErrQueueFull is returned under AdmitReject to a request that finds
	// no idle replica and QueueSize requests already waiting.
	ErrQueueFull = serve.ErrQueueFull
	// ErrModelNotFound is returned for Service operations on an
	// unregistered name.
	ErrModelNotFound = service.ErrNotFound
	// ErrNotDeployed is returned for Service predictions against a
	// registered model with no live version.
	ErrNotDeployed = service.ErrNotDeployed
	// ErrPanicked is returned for the individual requests whose
	// inference panicked; the replica pool recovers the panic, keeps
	// serving everything else, and rebuilds replicas that panic
	// repeatedly.
	ErrPanicked = serve.ErrPanicked
)

// Service is the deployment layer over Predictor pools: a named,
// versioned registry of immutable model snapshots (Register/Deploy/
// Swap) with context-aware predictions, zero-downtime hot swaps, and —
// with a Store configured — durable artifacts that survive restarts
// (WarmBoot).
type Service = service.Service

// ServiceOptions configures NewService; its Serve field is the replica
// pool template applied to every deployed version, its Store field
// (optional) makes the registry durable.
type ServiceOptions = service.Options

// DeployOptions are per-deployment overrides of the pool template: the
// per-model admission quota (policy + queue bound) and replica count.
type DeployOptions = service.DeployOptions

// Admission policy names for DeployOptions ("" inherits the template).
const (
	AdmissionInherit = service.AdmissionInherit
	AdmissionBlock   = service.AdmissionBlock
	AdmissionReject  = service.AdmissionReject
)

// ModelInfo describes one registered model version.
type ModelInfo = service.ModelInfo

// BootReport is WarmBoot's account of a store replay: what loaded,
// what was quarantined as damaged, what was skipped, and whether the
// node is serving in a degraded state. Also exposed by /v1/healthz.
type BootReport = service.BootReport

// GCResult is one model's outcome of a retention pass
// (Service.GC / POST /v1/admin/gc / ServiceOptions.Retain).
type GCResult = service.GCResult

// Prediction is one task-appropriate Service prediction with its
// model-name and snapshot-version provenance.
type Prediction = service.Prediction

// NewService creates an empty model registry. Close it to drain and
// release every deployed replica pool. With ServiceOptions.Store set,
// call WarmBoot next to replay persisted models and mark the service
// ready.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// NewServiceHandler exposes a Service over HTTP/JSON (/v1/predict,
// /v1/models, /v1/deploy, /v1/stats, /v1/healthz) — the handler
// cmd/serviced serves and the Client consumes.
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// WireServer serves a Service over the binary wire protocol: a framed
// TCP/unix-socket transport with persistent pipelined connections and
// out-of-order replies, sharing the HTTP API's registry, admission
// quotas, and error model. Feed it listeners with Serve and drain it
// with Shutdown; NewClient reaches it via a tcp:// or unix:// URL.
type WireServer = wire.Server

// WireServerOptions configures NewWireServer (the protocol-failure
// log hook; the payload cap and handler count are fixed).
type WireServerOptions = wire.ServerOptions

// NewWireServer mounts the Service behind the binary wire protocol —
// the wire counterpart of NewServiceHandler and what
// `serviced -wire-addr` serves.
func NewWireServer(s *Service, opts WireServerOptions) *WireServer { return wire.NewServer(s, opts) }

// Store is the registry's pluggable persistence: an opaque blob store
// (Put/Get/List/Delete) holding model artifacts and deployment
// markers.
type Store = service.Store

// NewMemStore creates an in-memory Store (tests, ephemeral
// registries).
func NewMemStore() *service.MemStore { return service.NewMemStore() }

// NewDirStore creates (if needed) and opens a directory-backed Store:
// one checksummed artifact file per model version, atomic writes,
// durable across restarts. This is what `serviced -store-dir` uses.
func NewDirStore(dir string) (*service.DirStore, error) { return service.NewDirStore(dir) }

// Client is the typed Go client for the /v1 API: per-request
// deadlines, bounded retries with backoff on 429/5xx, optional hedged
// requests, and connection reuse. With ClientOptions.Addrs listing
// several nodes it is cluster-aware: consistent-hash routing by model
// name, health-probed failover, and cross-node hedging. See package
// repro/client.
type Client = client.Client

// ClientOptions configures NewClient (timeout, retry budget, backoff,
// hedge delay, cluster node set).
type ClientOptions = client.Options

// ModelStats is one model's service metrics as fetched by
// Client.Stats.
type ModelStats = client.ModelStats

// NodeStats is one cluster node's client-side view (health state and
// traffic counters), as returned by Client.Nodes.
type NodeStats = client.NodeStats

// NewClient creates a typed /v1 API client for the service at baseURL.
// The scheme picks the transport: "http://host:port" (JSON API) or
// "tcp://host:port" / "unix:///path.sock" (the binary wire protocol,
// package repro/internal/wire) — same methods, same typed errors.
// Additional cluster nodes go in opts.Addrs (mixed schemes allowed);
// baseURL may be empty when Addrs is set.
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	return client.New(baseURL, opts)
}

// Client-side sentinel errors, matched with errors.Is against failed
// Client calls.
var (
	// ErrClientOverloaded: the model's admission quota rejected the
	// request (HTTP 429).
	ErrClientOverloaded = client.ErrOverloaded
	// ErrClientUnavailable: the server is warming up, draining, or
	// closed (HTTP 503).
	ErrClientUnavailable = client.ErrUnavailable
	// ErrClientCircuitOpen: the client's per-endpoint circuit breaker
	// is open and refused the call without a network round trip.
	ErrClientCircuitOpen = client.ErrCircuitOpen
)

// BreakerStats is one endpoint's circuit-breaker state snapshot, as
// returned by Client.Breakers.
type BreakerStats = client.BreakerStats

// FineTune continues training a neural model on a new workload (the
// transfer-learning extension of Section 8). Do not fine-tune a model
// while a Predictor built directly on it serves it — replicas alias
// its weights and keep layouts derived from them, so build a new
// Predictor after fine-tuning instead of reusing the old one. A Service
// has no such hazard: it deploys immutable snapshots, so the
// FineTune → Swap cycle is safe under live traffic.
func FineTune(m *Model, train []Item, cfg Config) (*Model, error) {
	return core.FineTune(m, train, cfg)
}

// MultiTaskModel jointly predicts error class, answer size, and CPU
// time from one shared encoder (the multi-task extension of Section 8).
type MultiTaskModel = core.MultiTaskModel

// TrainMultiTask fits the shared-encoder multi-task model.
func TrainMultiTask(train []Item, cfg Config) (*MultiTaskModel, error) {
	return core.TrainMultiTask(train, cfg)
}

// Compress reduces a workload to maxItems items preserving template
// diversity (the workload-compression extension of Section 8).
func Compress(items []Item, maxItems int) []Item {
	return workload.Compress(items, maxItems)
}

// Template normalizes a statement to its constant-free template.
func Template(stmt string) string { return workload.Template(stmt) }

// IngestWAL is the durable append-only log of served statements and
// ground-truth feedback: segmented, CRC-checked records with torn-tail
// recovery and retention pruning (package repro/internal/ingest). Hand
// one to ServiceOptions.Ingest to sample served traffic into it and to
// record Service.Observe feedback; hand the same directory to
// StartOnline to learn from it.
type IngestWAL = ingest.WAL

// IngestOptions configures OpenIngest (segment size, retention,
// per-append fsync). The zero value picks the defaults.
type IngestOptions = ingest.Options

// OpenIngest opens — creating if needed, and recovering any torn tail
// from a crash — the ingest WAL in dir. This is what
// `serviced -ingest-dir` uses.
func OpenIngest(dir string, opts IngestOptions) (*IngestWAL, error) {
	return ingest.Open(dir, opts)
}

// OnlinePipeline is the background online-learning loop: per model it
// tails the ingest WAL for ground-truth feedback, fine-tunes a
// candidate off the hot path, canaries it on held-out recent traffic,
// deploys only gated improvements, and rolls back a swap whose live
// metrics regress. All decisions are persisted in the Service's Store,
// so they survive restarts and propagate through WarmBoot/SyncStore.
// See package repro/internal/online.
type OnlinePipeline = online.Pipeline

// OnlineOptions configures StartOnline (window size, holdout fraction,
// canary margin, fine-tune config).
type OnlineOptions = online.Options

// StartOnline launches the online-learning pipeline over a running
// Service — what `serviced -online` runs.
func StartOnline(opts OnlineOptions) (*OnlinePipeline, error) {
	return online.Start(opts)
}
