// Command serviced is the network front door for the prediction
// service: a versioned registry of model snapshots (hot-swappable
// replica pools, optional durable storage) behind the HTTP/JSON API:
//
//	POST /v1/predict  {"model","statement"|"statements",["deadline_ms"]}
//	GET  /v1/models
//	POST /v1/deploy   {"model",["version"]}
//	GET  /v1/stats?model=NAME
//	GET  /v1/healthz
//	POST /v1/admin/gc
//	POST /v1/ingest   {"model","statement",["class"],["value"]}
//
// With -retain N set, each model keeps only its newest N versions plus
// the live one; older versions are pruned from memory and the store on
// every deploy (and on demand via POST /v1/admin/gc).
//
// With -store-dir set the registry is durable: every registered
// version is persisted as a checksummed artifact and the live
// deployments are recorded, so a restarted serviced warm-boots every
// previously deployed model — bit-identical predictions, no
// retraining. Models named in -models that are not restored from the
// store are trained on a synthetic workload and deployed.
//
// With -store-refresh set (requires -store-dir), serviced also polls
// the store at that interval and picks up models and deploys written
// by OTHER serviced processes sharing the same directory — the
// shared-store cluster mode: deploy on one node and every node serves
// it within one interval, no control plane required. Deploy markers
// carry generation counters; a node's own explicit deploys win ties
// against anything it merely observed in the store.
//
// The listener starts before the warm boot, so /v1/healthz implements
// the readiness contract: 503 while the store is being replayed, 200
// once the registry is restored. Models that still need training are
// trained after that (predictions for them 404 until deployed; on a
// restart against a warm store there is nothing left to train).
//
// With -wire-addr and/or -wire-unix set, the same service is also
// exposed over the binary wire protocol (internal/wire) — a framed
// TCP/unix-socket transport with persistent pipelined connections that
// removes the HTTP/JSON encode cost from the predict hot path. Both
// transports share one registry, one admission quota, and one error
// model; repro/client selects the wire transport with a tcp:// or
// unix:// base URL.
//
// With -ingest-dir set, served statements and /v1/ingest feedback are
// appended to a durable, checksummed write-ahead log (-ingest-sample N
// additionally samples every Nth successful predict). With -online set
// on top, a background pipeline per model tails that WAL, fine-tunes
// the live model on observed outcomes, and swaps the result in only
// when it beats the live version on held-out recent traffic by at
// least -canary-margin — with automatic rollback if the swap regresses
// on the next window. Decisions persist in the store, so a cluster
// sharing -store-dir converges on the adapted model — from one learner:
// -online is refused together with -store-refresh, because two nodes
// learning against one store can register the same next version number.
// Run -online on one node and -store-refresh on the others.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listeners stop
// accepting, in-flight HTTP and wire requests finish (bounded by
// -drain), and every replica pool is drained and closed.
//
// With -pprof-addr set, net/http/pprof profiling endpoints are served
// on a second, separate listener (never on the API address), so the
// live service can be profiled under production traffic
// (`go tool pprof http://<pprof-addr>/debug/pprof/profile`). The flag
// is empty — profiling off — by default.
//
// Examples:
//
//	serviced -addr :8080 -models ccnn,wlstm -task error -replicas 4
//	serviced -addr :8080 -models ccnn -store-dir /var/lib/serviced  # survives restarts
//	curl -s localhost:8080/v1/predict -d '{"model":"ccnn","statement":"SELECT 1","deadline_ms":50}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, exposed only via -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/wire"
)

// readHeaderTimeout bounds how long the HTTP listener waits for a
// request's headers.
const readHeaderTimeout = 10 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// config is the parsed flag set of one serviced invocation.
type config struct {
	addr         string
	wireAddr     string
	wireUnix     string
	models       []string
	task         core.Task
	replicas     int
	queue        int
	maxBatch     int
	admission    serve.AdmissionPolicy
	sessions     int
	drain        time.Duration
	pprofAddr    string
	storeDir     string
	retain       int
	storeRefresh time.Duration
	ingestDir    string
	ingestEvery  int
	online       bool
	onlineWindow int
	canaryMargin float64
}

// parseFlags validates the command line into a config.
func parseFlags(args []string) (config, error) {
	fs, parsed := flagSet()
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return parsed()
}

// flagSet declares serviced's command line; parsed validates the
// values into a config once fs.Parse has run. The flag names are
// pinned by TestFlagSurface.
func flagSet() (fs *flag.FlagSet, parsed func() (config, error)) {
	fs = flag.NewFlagSet("serviced", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	wireAddr := fs.String("wire-addr", "", "binary wire-protocol TCP listen address (empty = disabled)")
	wireUnix := fs.String("wire-unix", "", "binary wire-protocol unix socket path (empty = disabled)")
	models := fs.String("models", "ccnn", "comma-separated models to serve (warm-booted from the store or trained)")
	taskName := fs.String("task", "error", "task: error, session, cpu, answer, elapsed")
	replicas := fs.Int("replicas", runtime.GOMAXPROCS(0), "inference replicas per deployed model")
	queue := fs.Int("queue", 0, "calls allowed to wait for a replica, per model (0 = default)")
	maxBatch := fs.Int("max-batch", 32, "most statements one request (one batched forward pass) carries; longer batches are cut")
	admission := fs.String("admission", "reject", "what a call past the -queue bound meets: reject (429) or block")
	sessions := fs.Int("sessions", 1400, "synthetic SDSS sessions for training data")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	pprofAddr := fs.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled)")
	storeDir := fs.String("store-dir", "", "directory for durable model artifacts (empty = memory-only registry)")
	retain := fs.Int("retain", 0, "model versions kept per model beyond the live one (0 = keep all)")
	storeRefresh := fs.Duration("store-refresh", 0,
		"poll the store for models and deploys written by other nodes at this interval (0 = disabled; requires -store-dir)")
	ingestDir := fs.String("ingest-dir", "",
		"directory for the durable ingest WAL of served statements and feedback (empty = ingest disabled)")
	ingestEvery := fs.Int("ingest-sample", 0,
		"sample every Nth successful predict into the ingest WAL (0 = log explicit /v1/ingest feedback only; requires -ingest-dir)")
	onlineFlag := fs.Bool("online", false,
		"run the online fine-tune pipeline: tail the ingest WAL, fine-tune on observed outcomes, canary-gate swaps (requires -ingest-dir)")
	onlineWindow := fs.Int("online-window", 64, "observed records per online fine-tune window")
	canaryMargin := fs.Float64("canary-margin", 0,
		"score improvement the canary requires before swapping a fine-tuned candidate in")
	return fs, func() (config, error) {
		cfg := config{
			addr: *addr, wireAddr: *wireAddr, wireUnix: *wireUnix,
			replicas: *replicas, queue: *queue, maxBatch: *maxBatch,
			sessions: *sessions, drain: *drain, pprofAddr: *pprofAddr,
			storeDir: *storeDir, retain: *retain, storeRefresh: *storeRefresh,
			ingestDir: *ingestDir, ingestEvery: *ingestEvery, online: *onlineFlag,
			onlineWindow: *onlineWindow, canaryMargin: *canaryMargin,
		}
		if cfg.storeRefresh < 0 {
			return config{}, fmt.Errorf("serviced: -store-refresh must be >= 0, got %v", cfg.storeRefresh)
		}
		if cfg.storeRefresh > 0 && cfg.storeDir == "" {
			return config{}, errors.New("serviced: -store-refresh requires -store-dir (there is no store to watch)")
		}
		if cfg.retain < 0 {
			return config{}, fmt.Errorf("serviced: -retain must be >= 0, got %d", cfg.retain)
		}
		if cfg.ingestEvery < 0 {
			return config{}, fmt.Errorf("serviced: -ingest-sample must be >= 0, got %d", cfg.ingestEvery)
		}
		if cfg.ingestEvery > 0 && cfg.ingestDir == "" {
			return config{}, errors.New("serviced: -ingest-sample requires -ingest-dir (there is no log to sample into)")
		}
		if cfg.online && cfg.ingestDir == "" {
			return config{}, errors.New("serviced: -online requires -ingest-dir (the pipeline trains from the ingest WAL)")
		}
		if cfg.online && cfg.storeRefresh > 0 {
			return config{}, errors.New("serviced: -online cannot be combined with -store-refresh: every such node runs its own learner " +
				"against the shared store, and two can register the same next version number; run -online on one node " +
				"without -store-refresh and let the other nodes poll")
		}
		if cfg.onlineWindow <= 1 {
			return config{}, fmt.Errorf("serviced: -online-window must be > 1, got %d", cfg.onlineWindow)
		}
		if cfg.replicas <= 0 {
			return config{}, fmt.Errorf("serviced: -replicas must be positive, got %d", cfg.replicas)
		}
		if cfg.sessions <= 0 {
			return config{}, fmt.Errorf("serviced: -sessions must be positive, got %d", cfg.sessions)
		}
		for _, m := range strings.Split(*models, ",") {
			if m = strings.TrimSpace(m); m != "" {
				cfg.models = append(cfg.models, m)
			}
		}
		if len(cfg.models) == 0 {
			return config{}, errors.New("serviced: -models must name at least one model")
		}
		var err error
		if cfg.task, err = core.ParseTask(*taskName); err != nil {
			return config{}, err
		}
		switch *admission {
		case "reject":
			cfg.admission = serve.AdmitReject
		case "block":
			cfg.admission = serve.AdmitBlock
		default:
			return config{}, fmt.Errorf("serviced: unknown -admission %q (want reject or block)", *admission)
		}
		return cfg, nil
	}
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	if cfg.pprofAddr != "" {
		// The profiling server is separate from the API listener so the
		// pprof endpoints are never reachable on the service address.
		go func() {
			fmt.Fprintf(out, "pprof on %s/debug/pprof/\n", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				log.Printf("serviced: pprof server: %v", err)
			}
		}()
	}

	opts := service.Options{Serve: serve.Options{
		Replicas:  cfg.replicas,
		QueueSize: cfg.queue,
		MaxBatch:  cfg.maxBatch,
		Admission: cfg.admission,
	}, Retain: cfg.retain}
	if cfg.storeDir != "" {
		store, err := service.NewDirStore(cfg.storeDir)
		if err != nil {
			return err
		}
		opts.Store = store
		fmt.Fprintf(out, "durable registry at %s\n", cfg.storeDir)
	}
	if cfg.ingestDir != "" {
		wal, err := ingest.Open(cfg.ingestDir, ingest.Options{})
		if err != nil {
			return err
		}
		// Registered before the service's deferred Close so the WAL
		// outlives the last Observe (LIFO).
		defer wal.Close()
		opts.Ingest = wal
		opts.IngestEvery = cfg.ingestEvery
		fmt.Fprintf(out, "ingest WAL at %s (sample every %d)\n", cfg.ingestDir, cfg.ingestEvery)
	}
	svc := service.New(opts)
	defer svc.Close()

	// Serve immediately: /v1/healthz answers 503 until the boot below
	// finishes, so orchestrators can probe readiness instead of
	// guessing how long warm boot and training take.
	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: service.NewHandler(svc),
		// A peer that connects and never finishes its headers must not
		// pin a connection (and its goroutine) forever.
		ReadHeaderTimeout: readHeaderTimeout,
	}

	// Wire-protocol listeners bind before anything serves, so an
	// unusable address fails the start instead of a background goroutine.
	var wsrv *wire.Server
	var wireLns []net.Listener
	if cfg.wireAddr != "" || cfg.wireUnix != "" {
		wsrv = wire.NewServer(svc, wire.ServerOptions{Logf: log.Printf})
		if cfg.wireAddr != "" {
			ln, err := net.Listen("tcp", cfg.wireAddr)
			if err != nil {
				return err
			}
			wireLns = append(wireLns, ln)
		}
		if cfg.wireUnix != "" {
			os.Remove(cfg.wireUnix) // stale socket from an unclean exit
			ln, err := net.Listen("unix", cfg.wireUnix)
			if err != nil {
				for _, l := range wireLns {
					l.Close()
				}
				return err
			}
			wireLns = append(wireLns, ln)
		}
	}

	nservers := 1 + len(wireLns)
	errc := make(chan error, nservers)
	go func() {
		fmt.Fprintf(out, "serving on %s\n", cfg.addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	for _, ln := range wireLns {
		go func(ln net.Listener) {
			fmt.Fprintf(out, "wire protocol on %s\n", ln.Addr())
			errc <- wsrv.Serve(ln)
		}(ln)
	}
	// drainErrc collects every server goroutine's exit value after a
	// shutdown, returning the first failure.
	drainErrc := func() error {
		var first error
		for i := 0; i < nservers; i++ {
			if err := <-errc; err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bootc := make(chan error, 1)
	go func() { bootc <- boot(cfg, svc, out) }()

	// stopWatch halts the shared-store watcher; replaced with the real
	// stop function once the boot succeeds and the watcher starts.
	stopWatch := func() {}
	defer func() { stopWatch() }()
	// stopOnline halts the online fine-tune pipeline, same pattern.
	stopOnline := func() {}
	defer func() { stopOnline() }()

	select {
	case err = <-errc: // listener died (e.g. port in use) before boot finished
		svc.Close()
		return err
	case err = <-bootc:
		if err != nil { // boot failed: tear the listeners down
			srv.Close()
			if wsrv != nil {
				expired, cancel := context.WithCancel(context.Background())
				cancel()
				wsrv.Shutdown(expired) // force-close: nothing worth draining
			}
			drainErrc()
			return err
		}
		if cfg.online {
			// The pipeline starts only after a successful boot: it
			// fine-tunes whatever is live, so there must be something
			// live first.
			pl, err := online.Start(online.Options{
				Service: svc, Store: opts.Store, Dir: cfg.ingestDir,
				Models: cfg.models, Window: cfg.onlineWindow,
				Margin: cfg.canaryMargin, Config: core.DefaultConfig(),
				Logf: log.Printf,
			})
			if err != nil {
				svc.Close()
				srv.Close()
				return err
			}
			fmt.Fprintf(out, "online pipeline: window %d, canary margin %g\n",
				cfg.onlineWindow, cfg.canaryMargin)
			stopOnline = pl.Close
		}
		if cfg.storeRefresh > 0 {
			// Convergence loop for multi-node deployments sharing one
			// store directory: models and deploys written by other
			// nodes appear here within one interval. Started only
			// after a successful boot so it never races WarmBoot's
			// empty-registry requirement.
			fmt.Fprintf(out, "watching store every %v\n", cfg.storeRefresh)
			stopWatch = svc.WatchStore(cfg.storeRefresh, log.Printf)
		}
		select {
		case err = <-errc: // listener died after boot
			svc.Close()
			return err
		case <-ctx.Done():
		}
	case <-ctx.Done(): // signal mid-boot: shut down gracefully anyway
	}

	fmt.Fprintln(out, "shutting down...")
	stopWatch()  // no sync may land mid-drain
	stopOnline() // no swap may land mid-drain
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if wsrv != nil {
		if err := wsrv.Shutdown(shutCtx); err != nil {
			return err
		}
	}
	// Flush final per-model service metrics before the pools go away.
	for _, name := range cfg.models {
		if snap, err := svc.StatsSnapshot(name); err == nil {
			fmt.Fprintf(out, "%s v%d: %s\n", snap.Info.Name, snap.Info.LiveVersion, snap.Stats)
		}
	}
	svc.Close()
	return drainErrc()
}

// boot brings the registry to its serving state: warm-boot everything
// the store holds, then train and deploy whichever requested models
// were not restored. Models restored from the store are NOT retrained
// — that is the point of the store.
func boot(cfg config, svc *service.Service, out io.Writer) error {
	rep, err := svc.WarmBoot()
	if err != nil {
		return err
	}
	for _, detail := range rep.Details {
		fmt.Fprintf(out, "warm boot: %s\n", detail)
	}
	if rep.Degraded {
		fmt.Fprintf(out, "warm boot degraded: loaded=%d quarantined=%d skipped=%d\n",
			rep.Loaded, rep.Quarantined, rep.Skipped)
	}
	deployed := make(map[string]bool, len(rep.Deployed))
	for _, info := range rep.Deployed {
		// A store trained for another task must not be served under
		// this -task silently: the operator would read error-class
		// answers as session predictions.
		if info.Task != cfg.task.String() {
			return fmt.Errorf("serviced: store holds %q trained for %s, but -task is %s (use a different -store-dir or the matching -task)",
				info.Name, info.Task, cfg.task)
		}
		deployed[info.Name] = true
		fmt.Fprintf(out, "warm-booted %s v%d (%d versions in store)\n", info.Name, info.LiveVersion, info.Versions)
	}

	var env *experiments.Env
	for _, name := range cfg.models {
		if deployed[name] {
			continue
		}
		if env == nil {
			scale := experiments.SmallScale()
			scale.SDSSSessions = cfg.sessions
			env = experiments.NewEnv(scale)
		}
		fmt.Fprintf(out, "training %s for %s on %d statements...\n",
			name, cfg.task, len(env.SDSSSplit.Train))
		m, err := env.Model(name, cfg.task, experiments.HomoInstance)
		if err != nil {
			return err
		}
		info, err := svc.Swap(name, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "deployed %s v%d (%d replicas)\n", info.Name, info.Version, cfg.replicas)
	}
	return nil
}
