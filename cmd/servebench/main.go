// Command servebench load-tests the serving stack end to end through
// the typed /v1 client: concurrent clients drive predictions over
// HTTP or the binary wire protocol — deadlines, retries, and hedging
// included — and the run reports both client-observed latency
// percentiles and the server's own per-model service metrics.
//
// Two targets:
//
//   - In-process (default): trains one model on a synthetic workload,
//     deploys it in a service.Service behind a real listener on a
//     loopback port, and drives that. One command measures the whole
//     stack: client → transport → handler → admission → replica pool.
//   - Remote (-addr): drives an already-running serviced, training
//     nothing. The named model must be deployed there. The URL scheme
//     (http://, tcp://, unix://) picks the transport.
//   - Cluster (-addrs): drives an already-running multi-node serviced
//     cluster through the failover-aware client — comma-separated base
//     URLs, mixed schemes allowed. The client routes by consistent
//     hash, health-probes every node, and fails over on node loss; the
//     report adds one line per node with its state, request share, and
//     failover count.
//
// In-process mode, -transport picks the listener the load drives:
// http (the JSON API), tcp (the framed wire protocol on a loopback
// TCP port), or unix (the wire protocol on a unix socket). With -ab
// the same load runs over all three back to back against one shared
// service and the run ends with an A/B table — client p50/p99,
// predictions/s, and end-to-end allocations per served request
// (client and server live in one process, so the malloc delta counts
// both sides of the loopback). -json FILE additionally records the
// A/B results as JSON.
//
// SIGINT ends the run early and still flushes the final stats. With
// -deadline > 0 every request carries that per-request deadline (client
// timeout + server-side deadline_ms); expired requests are counted
// rather than served late. -retries and -hedge exercise the client's
// retry and hedging machinery under load. With -pprof-addr set,
// net/http/pprof profiling endpoints are served on that address for
// the lifetime of the run (`go tool pprof http://<addr>/debug/pprof/profile`).
//
// With -fault-rate > 0 (in-process HTTP only) the loopback server is
// wrapped in a seeded fault injector: each request fails with a 503 +
// Retry-After with that probability, drawn from the -fault-seed PRNG so
// a run replays exactly. The report then includes the injector's fault
// count, the requests the client's circuit breaker short-circuited,
// and the final per-endpoint breaker states — the knob for watching
// retry + breaker behavior under a controlled failure rate.
//
// With -ingest-replay DIR the load clients replay the statements
// recorded in that ingest WAL (in recorded order) instead of the
// synthetic test split — so a production traffic capture can be
// re-driven against any target. The report then ends with one line per
// recorded model showing the target's online-adaptation counters:
// windows consumed, candidates built, swaps, rollbacks, rejections,
// and the last gate decision. Against a serviced running -online this
// shows the pipeline reacting to the replayed traffic live.
//
// Examples:
//
//	servebench -model ccnn -task error -replicas 4 -clients 16 -duration 5s
//	servebench -model ccnn -transport unix -clients 8
//	servebench -model ccnn -ab -clients 4 -duration 5s -json BENCH_wire.json
//	servebench -model clstm -deadline 300us -admission reject
//	servebench -model ccnn -hedge 1ms -retries 3
//	servebench -model ccnn -fault-rate 0.2 -fault-seed 7 -retries 3
//	servebench -addr tcp://prod-host:9090 -model ccnn -clients 64
//	servebench -addr http://prod-host:8080 -model ccnn -ingest-replay /var/lib/serviced/wal
//	servebench -addrs http://node1:8080,http://node2:8080,tcp://node3:9090 -model ccnn
package main

import (
	"context"
	"encoding/json"
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
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/wire"
)

func main() {
	model := flag.String("model", "ccnn", "model to serve (ccnn, wcnn, clstm, wlstm, ...)")
	taskName := flag.String("task", "error", "task: error, session, cpu, answer, elapsed")
	addr := flag.String("addr", "", "base URL of a running serviced (empty = spin up an in-process server; scheme picks the transport)")
	addrs := flag.String("addrs", "", "comma-separated base URLs of a running serviced cluster (multi-node load mode; mixed schemes allowed)")
	transport := flag.String("transport", "http", "in-process listener the load drives: http, tcp (wire protocol), or unix (wire protocol)")
	ab := flag.Bool("ab", false, "drive the same in-process load over http, tcp, and unix back to back and print an A/B table")
	jsonOut := flag.String("json", "", "write the -ab results as JSON to this file")
	replicas := flag.Int("replicas", runtime.GOMAXPROCS(0), "inference replicas (in-process mode)")
	clients := flag.Int("clients", 2*runtime.GOMAXPROCS(0), "concurrent load-generating clients")
	duration := flag.Duration("duration", 3*time.Second, "load duration")
	queue := flag.Int("queue", 0, "request queue size (0 = default; in-process mode)")
	sessions := flag.Int("sessions", 1400, "synthetic SDSS sessions for train/test data")
	reqDeadline := flag.Duration("deadline", 0, "per-request deadline (0 = none)")
	admission := flag.String("admission", "block", "full-queue policy: block or reject (in-process mode)")
	retries := flag.Int("retries", -1, "client retry budget on 429/5xx (-1 = off, 0 = client default)")
	hedge := flag.Duration("hedge", 0, "hedge delay: fire a duplicate request after this wait (0 = off)")
	faultRate := flag.Float64("fault-rate", 0, "probability each in-process request is failed with an injected 503 (0 = off)")
	faultSeed := flag.Int64("fault-seed", 1, "PRNG seed for the fault injector (same seed = same fault schedule)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled)")
	ingestReplay := flag.String("ingest-replay", "",
		"replay the statements recorded in this ingest WAL directory instead of the synthetic workload, and report per-model online-adaptation events after the run")
	flag.Parse()

	if *clients <= 0 {
		log.Fatalf("servebench: -clients must be positive, got %d", *clients)
	}
	if *duration <= 0 {
		log.Fatalf("servebench: -duration must be positive, got %s", *duration)
	}
	switch *transport {
	case "http", "tcp", "unix":
	default:
		log.Fatalf("servebench: unknown -transport %q (want http, tcp, or unix)", *transport)
	}
	var clusterAddrs []string
	if *addrs != "" {
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				clusterAddrs = append(clusterAddrs, a)
			}
		}
		if len(clusterAddrs) == 0 {
			log.Fatal("servebench: -addrs must name at least one base URL")
		}
		if *addr != "" {
			log.Fatal("servebench: -addr and -addrs are mutually exclusive")
		}
	}
	remote := *addr != "" || len(clusterAddrs) > 0
	if remote && (*ab || *transport != "http") {
		log.Fatal("servebench: -ab and -transport apply to the in-process server; with -addr/-addrs the URL scheme picks the transport")
	}
	if *jsonOut != "" && !*ab {
		log.Fatal("servebench: -json records -ab results; pass -ab too")
	}
	if *addr == "" && *replicas <= 0 {
		log.Fatalf("servebench: -replicas must be positive, got %d", *replicas)
	}
	if *faultRate < 0 || *faultRate > 1 {
		log.Fatalf("servebench: -fault-rate must be in [0,1], got %g", *faultRate)
	}
	if *faultRate > 0 && remote {
		log.Fatal("servebench: -fault-rate injects faults into the in-process server; it cannot be used with -addr/-addrs")
	}
	if *faultRate > 0 && (*ab || *transport != "http") {
		log.Fatal("servebench: -fault-rate wraps the HTTP handler; it cannot fault the wire transport")
	}
	var policy serve.AdmissionPolicy
	switch *admission {
	case "block":
		policy = serve.AdmitBlock
	case "reject":
		policy = serve.AdmitReject
	default:
		log.Fatalf("servebench: unknown -admission %q (want block or reject)", *admission)
	}
	task, err := parseTask(*taskName)
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "pprof on %s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("servebench: pprof server: %v", err)
			}
		}()
	}

	// Statements replayed by the load clients: a recorded ingest WAL
	// when -ingest-replay is set, the synthetic test split otherwise.
	// In-process mode always needs the synthetic environment — it is
	// the training data for the served model.
	var env *experiments.Env
	if !remote || *ingestReplay == "" {
		scale := experiments.SmallScale()
		scale.SDSSSessions = *sessions
		env = experiments.NewEnv(scale)
	}
	var stmts []string
	var walModels []string
	if *ingestReplay != "" {
		var err error
		stmts, walModels, err = loadWALStatements(*ingestReplay)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "replaying %d recorded statements (%d models) from %s\n",
			len(stmts), len(walModels), *ingestReplay)
	} else {
		stmts = make([]string, len(env.SDSSSplit.Test))
		for i, item := range env.SDSSSplit.Test {
			stmts[i] = item.Statement
		}
	}

	baseURL := *addr
	urls := map[string]string{}
	var inj *faults.Injector
	if !remote {
		// In-process target: train, deploy, serve on loopback listeners.
		fmt.Fprintf(os.Stderr, "training %s for %s on %d statements...\n", *model, task, len(env.SDSSSplit.Train))
		m, err := env.Model(*model, task, experiments.HomoInstance)
		if err != nil {
			log.Fatal(err)
		}
		svc := service.New(service.Options{Serve: serve.Options{
			Replicas:  *replicas,
			QueueSize: *queue,
			Admission: policy,
		}})
		defer svc.Close()
		if _, err := svc.Swap(*model, m); err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		handler := http.Handler(service.NewHandler(svc))
		if *faultRate > 0 {
			// Injected-fault loopback: a seeded fraction of requests die
			// with 503 + Retry-After before reaching the service, so the
			// client's retry schedule and circuit breaker face a
			// reproducible failure rate.
			inj = faults.NewInjector(*faultSeed)
			inj.Add(faults.Rule{Op: faults.OpHTTP, Rate: *faultRate})
			inner := handler
			handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if d := inj.Decide(faults.OpHTTP, r.URL.Path); d.Err != nil {
					w.Header().Set("Content-Type", "application/json")
					w.Header().Set("Retry-After", "1")
					w.WriteHeader(http.StatusServiceUnavailable)
					fmt.Fprintf(w, "{\"error\":%q}\n", d.Err.Error())
					return
				}
				inner.ServeHTTP(w, r)
			})
		}
		srv := &http.Server{Handler: handler}
		go srv.Serve(ln)
		defer srv.Close()
		urls["http"] = "http://" + ln.Addr().String()

		if *ab || *transport != "http" {
			// The wire server shares the service — same registry, same
			// admission quota — so http-vs-wire differences are pure
			// transport cost.
			wsrv := wire.NewServer(svc, wire.ServerOptions{})
			tln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			go wsrv.Serve(tln)
			urls["tcp"] = "tcp://" + tln.Addr().String()
			sock := filepath.Join(os.TempDir(), fmt.Sprintf("servebench-%d.sock", os.Getpid()))
			os.Remove(sock)
			uln, err := net.Listen("unix", sock)
			if err != nil {
				log.Fatal(err)
			}
			go wsrv.Serve(uln)
			urls["unix"] = "unix://" + sock
			defer func() {
				shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				wsrv.Shutdown(shutCtx)
			}()
		}
		baseURL = urls[*transport]
	}

	copts := client.Options{Timeout: *reqDeadline, Retries: *retries, Hedge: *hedge, Addrs: clusterAddrs}

	// SIGINT ends the load early; the final stats still print.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *ab {
		runAB(sigCtx, urls, copts, *model, stmts, *clients, *duration, *jsonOut)
		reportServer(urls["http"], copts, *model)
		return
	}

	c, err := client.New(baseURL, copts)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	target := baseURL
	if len(clusterAddrs) > 0 {
		target = fmt.Sprintf("%d-node cluster %s", len(clusterAddrs), strings.Join(clusterAddrs, ","))
	}
	fmt.Fprintf(os.Stderr, "driving %s via %s with %d clients for %s...\n",
		*model, target, *clients, *duration)
	res := drive(sigCtx, c, *model, stmts, *clients, *duration, 0)

	fmt.Printf("client: served=%d throughput=%.0f/s p50=%s p99=%s expired=%d rejected=%d short_circuited=%d failed=%d\n",
		res.served, float64(res.served)/res.elapsed.Seconds(), res.p(50), res.p(99),
		res.expired, res.rejected, res.shorted, res.failed)
	if inj != nil {
		ops, injected := inj.Stats()
		fmt.Printf("faults: seed=%d requests=%d injected=%d (rate %.3f)\n",
			*faultSeed, ops, injected, float64(injected)/float64(max(ops, 1)))
	}
	for _, b := range c.Breakers() {
		fmt.Printf("breaker: %s state=%s failures=%d opened=%d short_circuited=%d\n",
			b.Endpoint, b.State, b.Failures, b.Opened, b.ShortCircuited)
	}
	if len(clusterAddrs) > 0 {
		// Per-node attribution: which node carried what share of the
		// load, and how much of it arrived by failover rather than by
		// ring preference.
		nodes := c.Nodes()
		var total uint64
		for _, ns := range nodes {
			total += ns.Served
		}
		for _, ns := range nodes {
			fmt.Printf("node %s: state=%s served=%d share=%.1f%% failovers=%d\n",
				ns.Addr, ns.State, ns.Served, 100*float64(ns.Served)/float64(max(total, 1)), ns.Failovers)
		}
	}
	reportServerWith(c, *model)
	if len(walModels) > 0 {
		reportAdaptation(c, walModels)
	}
}

// loadWALStatements reads every record of the ingest WAL at dir and
// returns the statements in recorded order plus the distinct model
// names seen, in first-appearance order.
func loadWALStatements(dir string) (stmts, models []string, err error) {
	r := ingest.OpenReader(dir, ingest.Pos{})
	defer r.Close()
	seen := map[string]bool{}
	var rec ingest.Record
	for {
		err := r.Next(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("servebench: read ingest WAL %s: %w", dir, err)
		}
		stmts = append(stmts, rec.Statement)
		if !seen[rec.Model] {
			seen[rec.Model] = true
			models = append(models, rec.Model)
		}
	}
	if segs, bytes := r.Skipped(); segs > 0 {
		fmt.Fprintf(os.Stderr, "servebench: skipped %d damaged WAL segments (%d bytes) in %s\n", segs, bytes, dir)
	}
	if len(stmts) == 0 {
		return nil, nil, fmt.Errorf("servebench: no records in ingest WAL %s", dir)
	}
	return stmts, models, nil
}

// reportAdaptation prints each replayed model's online-learning
// counters, so a WAL replay shows not just throughput but how the
// target's fine-tune pipeline reacted to the traffic.
func reportAdaptation(c *client.Client, models []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, m := range models {
		st, err := c.Stats(ctx, m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: fetch %s stats: %v\n", m, err)
			continue
		}
		o := st.Online
		if o == nil {
			fmt.Printf("online %s: target has no online pipeline\n", m)
			continue
		}
		fmt.Printf("online %s: consumed=%d windows=%d candidates=%d swaps=%d rollbacks=%d rejected=%d\n",
			m, o.Consumed, o.Windows, o.Candidates, o.Swaps, o.Rollbacks, o.Rejected)
		if o.LastDecision != "" {
			fmt.Printf("online %s: last decision: %s\n", m, o.LastDecision)
		}
	}
}

// driveResult is one load leg's client-observed outcome.
type driveResult struct {
	served, expired, rejected, shorted, failed uint64
	lats                                       []time.Duration // sorted
	elapsed                                    time.Duration
	allocsPerOp                                float64 // process-wide mallocs per served request
}

// p returns the q-th latency percentile of the served requests.
func (r driveResult) p(q int) time.Duration {
	if len(r.lats) == 0 {
		return 0
	}
	return r.lats[(len(r.lats)-1)*q/100]
}

// drive replays statements through c with the given concurrency for
// the given duration. warmup requests run (and are discarded) first so
// connection setup and pool growth stay out of the measured window.
func drive(parent context.Context, c *client.Client, model string, stmts []string, clients int, duration time.Duration, warmup int) driveResult {
	for i := 0; i < warmup && parent.Err() == nil; i++ {
		c.Predict(parent, model, stmts[i%len(stmts)])
	}

	// Bound the run with a cancel, not a deadline: a deadline here would
	// ride along as every frame's deadline_ms (the wire client forwards
	// ctx deadlines to the server, which arms a timer context per
	// request), polluting allocs/op and — as the run winds down — the
	// expiry and breaker counters. Per-request deadlines come only from
	// -deadline via the client's own timeout.
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	stopTimer := time.AfterFunc(duration, cancel)
	defer stopTimer.Stop()

	var served, expired, rejected, shorted, failed atomic.Uint64
	lats := make([][]time.Duration, clients)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl; ctx.Err() == nil; i++ {
				stmt := stmts[i%len(stmts)]
				t0 := time.Now()
				_, err := c.Predict(ctx, model, stmt)
				switch {
				case err == nil:
					served.Add(1)
					lats[cl] = append(lats[cl], time.Since(t0))
				case errors.Is(err, context.DeadlineExceeded), isStatus(err, http.StatusGatewayTimeout):
					// The per-request deadline expired — on the client
					// (ctx) or on the server (504), whichever won.
					if ctx.Err() != nil {
						return // run over, not a request expiry
					}
					expired.Add(1)
				case errors.Is(err, client.ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, client.ErrCircuitOpen):
					// The breaker refused to spend the request on a host it
					// believes is down — no network round trip happened.
					// Pause instead of spinning on the open circuit.
					shorted.Add(1)
					select {
					case <-time.After(time.Millisecond):
					case <-ctx.Done():
						return
					}
				case ctx.Err() != nil:
					return
				default:
					failed.Add(1)
				}
			}
		}(cl)
	}
	wg.Wait()
	res := driveResult{
		served: served.Load(), expired: expired.Load(), rejected: rejected.Load(),
		shorted: shorted.Load(), failed: failed.Load(), elapsed: time.Since(start),
	}
	runtime.ReadMemStats(&m1)
	res.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(max(res.served, 1))
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.lats = all
	return res
}

// runAB drives the identical load over every transport back to back
// against the one shared in-process service and prints the comparison.
func runAB(ctx context.Context, urls map[string]string, copts client.Options, model string, stmts []string, clients int, duration time.Duration, jsonOut string) {
	order := []string{"http", "tcp", "unix"}
	results := map[string]driveResult{}
	for _, tr := range order {
		if ctx.Err() != nil {
			break
		}
		c, err := client.New(urls[tr], copts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "driving %s via %s with %d clients for %s...\n", model, urls[tr], clients, duration)
		results[tr] = drive(ctx, c, model, stmts, clients, duration, 200)
		c.Close()
	}

	fmt.Printf("%-9s %10s %12s %12s %12s %12s\n", "transport", "served", "preds/s", "p50", "p99", "allocs/op")
	for _, tr := range order {
		r, ok := results[tr]
		if !ok {
			continue
		}
		fmt.Printf("%-9s %10d %12.0f %12s %12s %12.1f\n",
			tr, r.served, float64(r.served)/r.elapsed.Seconds(), r.p(50), r.p(99), r.allocsPerOp)
	}

	if jsonOut == "" {
		return
	}
	type legJSON struct {
		Served      uint64  `json:"served"`
		PredsPerSec float64 `json:"preds_per_s"`
		P50Us       float64 `json:"p50_us"`
		P99Us       float64 `json:"p99_us"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		Failed      uint64  `json:"failed,omitempty"`
	}
	doc := struct {
		Description string             `json:"description"`
		Clients     int                `json:"clients"`
		DurationSec float64            `json:"duration_s"`
		Model       string             `json:"model"`
		Results     map[string]legJSON `json:"results"`
	}{
		Description: "servebench -ab: identical predict load per transport against one in-process service; allocs/op is the process-wide malloc delta per served request (client+server share the process)",
		Clients:     clients, DurationSec: duration.Seconds(), Model: model,
		Results: map[string]legJSON{},
	}
	for tr, r := range results {
		doc.Results[tr] = legJSON{
			Served: r.served, PredsPerSec: float64(r.served) / r.elapsed.Seconds(),
			P50Us:       float64(r.p(50)) / float64(time.Microsecond),
			P99Us:       float64(r.p(99)) / float64(time.Microsecond),
			AllocsPerOp: r.allocsPerOp, Failed: r.failed,
		}
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
}

// reportServer prints the server-side per-model stats via a fresh
// client on the given base URL.
func reportServer(baseURL string, copts client.Options, model string) {
	c, err := client.New(baseURL, copts)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	reportServerWith(c, model)
}

// reportServerWith prints the server-side view: per-model attribution
// of the run.
func reportServerWith(c *client.Client, model string) {
	statsCtx, statsCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer statsCancel()
	if st, err := c.Stats(statsCtx, model); err == nil {
		fmt.Printf("server: %s\n", st.Stats)
	} else {
		fmt.Fprintf(os.Stderr, "servebench: fetch server stats: %v\n", err)
	}
}

// isStatus reports whether err is an API error with the given HTTP
// status.
func isStatus(err error, status int) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

func parseTask(s string) (core.Task, error) {
	switch s {
	case "error":
		return core.ErrorClassification, nil
	case "session":
		return core.SessionClassification, nil
	case "cpu":
		return core.CPUTimePrediction, nil
	case "answer":
		return core.AnswerSizePrediction, nil
	case "elapsed":
		return core.ElapsedTimePrediction, nil
	default:
		return 0, fmt.Errorf("unknown task %q (want error, session, cpu, answer, elapsed)", s)
	}
}
