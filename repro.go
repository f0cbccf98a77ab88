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
// This facade is the train → serve → learn-online path the programs
// under examples/ walk, and nothing else (TestFacadeSurface pins it to
// the names they use). Everything it names, and the rest of the
// surface, lives in the packages it forwards to:
//
//	client               typed Go client for a served Service (HTTP or wire, one node or a cluster)
//	internal/sqllex      character/word tokenizers
//	internal/sqlparse    SQL parser and the 10 syntactic properties
//	internal/simdb       execution simulator (catalogs, labels, optimizer)
//	internal/synth       SDSS-like and SQLShare-like workload generators
//	internal/workload    extraction pipeline, splits, workload analysis
//	internal/nn          LSTM/CNN engine trained with AdaMax
//	internal/textfeat    n-gram TF-IDF + logistic/Huber regression
//	internal/core        model registry and training pipeline
//	internal/serve       replica pool a trained model is served from
//	internal/service     named, versioned model registry and its HTTP API
//	internal/wire        binary wire protocol over TCP/unix sockets
//	internal/ingest      WAL of served statements and ground-truth feedback
//	internal/online      background fine-tune → canary → deploy loop
//	internal/experiments every table and figure of the evaluation
//
// Quickstart:
//
//	w := repro.GenerateSDSS(5000, 1)
//	split := repro.SplitRandom(w.Items, 1)
//	model, _ := repro.Train("ccnn", repro.ErrorClassification, split.Train, repro.DefaultConfig())
//	class := model.PredictClass("SELECT * FROM PhotoObj WHERE r < 22")
//
// For serving, the front door is the Service: a named, versioned
// registry of immutable model snapshots served by replica pools, with
// context-aware predictions and zero-downtime hot swaps:
//
//	svc := repro.NewService(repro.ServiceOptions{Serve: repro.ServeOptions{Replicas: 8}})
//	defer svc.Close()
//	svc.Swap("errors", model) // register v1 + deploy
//	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer cancel()
//	pred, err := svc.Predict(ctx, "errors", "SELECT * FROM PhotoObj WHERE r < 22")
//
// cmd/serviced exposes the same Service over HTTP/JSON and the wire
// protocol.
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
	"repro/internal/synth"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ErrorClassification is the first of the paper's four query
// facilitation problems (Definition 4); core names the other three.
const ErrorClassification = core.ErrorClassification

// DefaultConfig returns the scaled-down defaults of the experiment
// harness (paper hyper-parameters: lr 1e-3, batch 16, AdaMax, Huber).
func DefaultConfig() core.Config { return core.DefaultConfig() }

// Train fits the named model (one of core.ModelNames) for a task on
// training items.
func Train(name string, task core.Task, train []workload.Item, cfg core.Config) (*core.Model, error) {
	return core.Train(name, task, train, cfg)
}

// FineTune continues training a neural model on a new workload (the
// transfer-learning extension of Section 8). Do not fine-tune a model
// while a serve.Predictor built directly on it serves it — replicas
// alias its weights and keep layouts derived from them. A Service has
// no such hazard: it deploys immutable snapshots, so the FineTune →
// Swap cycle is safe under live traffic.
func FineTune(m *core.Model, train []workload.Item, cfg core.Config) (*core.Model, error) {
	return core.FineTune(m, train, cfg)
}

// GenerateSDSS produces an SDSS-like workload with the given number of
// user sessions.
func GenerateSDSS(sessions int, seed int64) *workload.Workload {
	return synth.NewSDSS(synth.SDSSConfig{Sessions: sessions, HitsPerSessionMax: 3, Seed: seed}).Generate()
}

// SplitRandom partitions items 80/10/10 at random (Homogeneous
// settings).
func SplitRandom(items []workload.Item, seed int64) workload.Split {
	return workload.RandomSplit(items, 0.1, 0.1, rand.New(rand.NewSource(seed)))
}

// Service is the deployment layer over replica pools: a named,
// versioned registry of immutable model snapshots (Register/Deploy/
// Swap) with context-aware predictions, zero-downtime hot swaps, and —
// with a Store configured — durable artifacts that survive restarts
// (WarmBoot).
type Service = service.Service

// ServiceOptions configures NewService; its Serve field is the replica
// pool template every deployed version runs (each model its own pool,
// all with the same values), its Store field (optional) makes the
// registry durable.
type ServiceOptions = service.Options

// ServeOptions is that pool template: replica count, how many calls
// may wait for a replica, the most statements one call carries, and
// what a call past the waiting bound meets.
type ServeOptions = serve.Options

// NewService creates an empty model registry. Close it to drain and
// release every deployed replica pool. With ServiceOptions.Store set,
// call WarmBoot next to replay persisted models and mark the service
// ready.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// NewServiceHandler exposes a Service over HTTP/JSON (/v1/predict,
// /v1/models, /v1/deploy, /v1/stats, /v1/healthz) — the handler
// cmd/serviced serves and the client consumes.
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// WireServerOptions configures NewWireServer (the protocol-failure
// log hook; the payload cap and handler count are fixed).
type WireServerOptions = wire.ServerOptions

// NewWireServer mounts the Service behind the binary wire protocol — a
// framed TCP/unix-socket transport with persistent pipelined
// connections and out-of-order replies, sharing the HTTP API's
// registry, admission quotas, and error model. Feed it listeners with
// Serve and drain it with Shutdown; it is what `serviced -wire-addr`
// serves, and NewClient reaches it via a tcp:// or unix:// URL.
func NewWireServer(s *Service, opts WireServerOptions) *wire.Server { return wire.NewServer(s, opts) }

// NewDirStore creates (if needed) and opens a directory-backed
// service.Store: one checksummed artifact file per model version,
// atomic writes, durable across restarts. This is what
// `serviced -store-dir` uses.
func NewDirStore(dir string) (*service.DirStore, error) { return service.NewDirStore(dir) }

// ClientOptions configures NewClient (timeout, retry budget, probe
// interval, cluster node set).
type ClientOptions = client.Options

// NewClient creates a typed /v1 API client for the service at baseURL:
// per-request deadlines, bounded retries on 429/5xx, connection
// reuse. The scheme picks the
// transport: "http://host:port" (JSON API) or "tcp://host:port" /
// "unix:///path.sock" (the binary wire protocol) — same methods, same
// typed errors (client.ErrOverloaded, client.ErrUnavailable,
// client.ErrCircuitOpen). With opts.Addrs listing several nodes (mixed
// schemes allowed; baseURL may then be empty) it is cluster-aware:
// consistent-hash routing by model name and health-probed failover.
func NewClient(baseURL string, opts ClientOptions) (*client.Client, error) {
	return client.New(baseURL, opts)
}

// IngestOptions configures OpenIngest (segment size, retention,
// per-append fsync). The zero value picks the defaults.
type IngestOptions = ingest.Options

// OpenIngest opens — creating if needed, and recovering any torn tail
// from a crash — the ingest WAL in dir: the durable append-only log of
// served statements and ground-truth feedback. Hand it to
// ServiceOptions.Ingest to sample served traffic into it and to record
// Service.Observe feedback; hand the same directory to StartOnline to
// learn from it. This is what `serviced -ingest-dir` uses.
func OpenIngest(dir string, opts IngestOptions) (*ingest.WAL, error) {
	return ingest.Open(dir, opts)
}

// OnlineOptions configures StartOnline (window size, holdout fraction,
// canary margin, fine-tune config).
type OnlineOptions = online.Options

// StartOnline launches the online-learning loop over a running Service
// — what `serviced -online` runs: per model it tails the ingest WAL for
// ground-truth feedback, fine-tunes a candidate off the hot path,
// canaries it on held-out recent traffic, deploys only gated
// improvements, and rolls back a swap whose live metrics regress. All
// decisions are persisted in the Service's Store, so they survive
// restarts and propagate through WarmBoot/WatchStore.
func StartOnline(opts OnlineOptions) (*online.Pipeline, error) {
	return online.Start(opts)
}
