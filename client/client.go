// Package client is the typed Go client for the prediction service
// (internal/service, cmd/serviced), speaking either the /v1 HTTP/JSON
// API or the binary wire protocol (internal/wire) depending on each
// node URL's scheme: http:// and https:// select HTTP, tcp:// and
// unix:// select the framed binary transport with persistent
// pipelined connections. It replaces hand-rolled HTTP with a library
// that encodes the API's operational contract:
//
//   - Per-request deadlines: Options.Timeout bounds every attempt (on
//     top of whatever deadline the caller's context carries), and the
//     attempt's remaining time propagates server-side as deadline_ms on
//     both transports, so an expired request is cancelled while it
//     waits for a replica, not served late.
//   - Bounded retries with exponential backoff on 429, 5xx, and
//     transport errors — predictions are pure functions of the
//     deployed snapshot, so retrying them is always safe. Deploys are
//     never retried implicitly.
//   - Server-paced backoff: a 429/503 carrying a Retry-After header is
//     retried after the server's hint, not the client's exponential
//     guess.
//   - Per-node, per-endpoint circuit breakers: sustained failures trip
//     an endpoint open, calls fail fast with ErrCircuitOpen (no
//     network), and a half-open probe after the cooldown closes the
//     circuit once the server recovers. The readiness probe is exempt.
//   - Connection reuse: one pooled transport per node; create one
//     Client per cluster and share it across goroutines.
//
// # Cluster mode
//
// With Options.Addrs listing more than one node (mixed schemes
// allowed), the client becomes cluster-aware. A deterministic
// consistent-hash ring (internal/cluster) maps each model name to a
// preferred node and a fixed fallback order — every client with the
// same address set computes the same order with no coordination — and
// a background health tracker probes each node's /v1/healthz,
// classifying nodes up, degraded, or down. Requests route to the
// first live node in ring order and, on transport error, 5xx, or an
// open breaker, fail over to the next: the retry budget spans nodes
// (failing over to a fresh node happens immediately, without backoff),
// and an open breaker is skipped without consuming the budget. Down
// nodes are deprioritized, not banned — probes re-admit a node the
// moment it answers again.
//
// Result types are shared with the service layer (re-exported here
// and from the repro facade), so a prediction obtained over the wire
// carries exactly the provenance a co-located Service call would.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/wire"
)

// Prediction is one task-appropriate prediction with provenance
// (registry name and snapshot version), as served by /v1/predict.
type Prediction = service.Prediction

// ModelInfo describes one registered model version, as served by
// /v1/models and /v1/deploy.
type ModelInfo = service.ModelInfo

// ModelStats is one model's service metrics, as served by /v1/stats
// and the wire transport's stats reply — the service layer's single
// snapshot shape, so the two transports expose identical fields.
type ModelStats = service.StatsSnapshot

// Sentinel errors, matched through errors.Is against the *APIError a
// failed call returns.
var (
	// ErrNotFound: the model name is not registered (404).
	ErrNotFound = errors.New("client: model not found")
	// ErrNotDeployed: the model is registered but has no live version
	// (409).
	ErrNotDeployed = errors.New("client: model not deployed")
	// ErrOverloaded: the model's admission quota rejected the request
	// (429). Retried automatically up to the retry budget.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrUnavailable: the server is warming up, draining, or closed
	// (503). Retried automatically up to the retry budget.
	ErrUnavailable = errors.New("client: server unavailable")
)

// APIError is a non-2xx response from the service, carrying the HTTP
// status and the server's error message. It matches the sentinel
// errors above through errors.Is.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's pacing hint from a Retry-After header
	// (0 when absent). The retry loop honors it in place of its own
	// exponential backoff — the server knows its drain time better than
	// the client's guess.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Is maps statuses onto the package sentinels for errors.Is.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.Status == http.StatusNotFound
	case ErrNotDeployed:
		return e.Status == http.StatusConflict
	case ErrOverloaded:
		return e.Status == http.StatusTooManyRequests
	case ErrUnavailable:
		return e.Status == http.StatusServiceUnavailable
	}
	return false
}

// retryable reports whether a fresh attempt could plausibly succeed:
// admission rejections and server-side failures, but never client
// mistakes (4xx other than 429).
func (e *APIError) retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Options configures a Client. The zero value is usable: no default
// deadline, 2 retries, single node.
//
// Fixed for every client: a retry that re-targets a node already tried
// waits 50ms, doubling per retry (or the server's Retry-After hint);
// and each node's endpoints carry their own circuit breaker, which
// opens once half of a full window of 10 attempts failed with server
// trouble (5xx, 429, transport errors), short-circuits calls with
// ErrCircuitOpen for 1s, then lets one half-open probe decide whether
// to close or re-open. One node's trouble never trips another's
// circuit, an open breaker on the preferred node short-circuits
// straight to the fallback with zero network calls to the tripped
// node, and /v1/healthz is always exempt, so readiness polling keeps
// working while everything else is tripped.
type Options struct {
	// Addrs lists additional cluster node base URLs beyond New's
	// baseURL (which may be empty when Addrs is set). Mixed schemes are
	// allowed — an HTTP node and a wire node are one cluster. With more
	// than one distinct address the client builds the consistent-hash
	// ring and starts the background health prober; see the package
	// comment's Cluster mode section.
	Addrs []string
	// ProbeInterval is the per-node health-probe period in cluster mode
	// (<= 0 selects 500ms). Each cycle adds seeded jitter up to a
	// quarter interval so probes never thunder in lockstep.
	ProbeInterval time.Duration
	// Timeout is the per-attempt deadline applied to every request
	// when > 0, layered under any caller context deadline. Each retry
	// gets a fresh allowance.
	Timeout time.Duration
	// Retries is the maximum number of re-attempts after a retryable
	// failure (429, 5xx, transport error). 0 selects the default of 2;
	// negative disables retries. In cluster mode the budget spans
	// nodes: each retry fails over to the next node in ring order, and
	// a fresh node is tried immediately, without backoff.
	Retries int
}

// backoff is the delay before the first retry to a node already tried
// this call, doubling per subsequent retry.
const backoff = 50 * time.Millisecond

// resolved returns opts with defaults applied.
func (o Options) resolved() Options {
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	return o
}

// node is one cluster member: its canonical address (the ring key),
// its transport, its circuit breakers, and its traffic counters.
type node struct {
	addr string // canonical address, e.g. "http://host:port", "tcp://host:port"
	base string // HTTP base URL ("" for wire nodes)
	http *http.Client
	// wire, when non-nil, replaces HTTP with the binary wire transport
	// (tcp:// and unix:// addresses). Retry, breaker, deadline, and
	// sentinel-error semantics are identical across transports.
	wire *wire.Client

	// breakers maps endpoint path -> circuit breaker, created lazily.
	// Per node: one node's failures never open another node's circuit.
	bmu      sync.Mutex
	breakers map[string]*breaker

	// served counts successful calls answered by this node; failovers
	// counts those that were routed here after the preferred node
	// failed or short-circuited.
	served    atomic.Uint64
	failovers atomic.Uint64
}

// Client is a typed /v1 API client over one node or a cluster. Safe
// for concurrent use; create one per cluster and share it.
type Client struct {
	// nodes is indexed identically to ring's Addrs (sorted canonical
	// addresses), so ring orders index into it directly.
	nodes []*node
	// ring and tracker are nil in single-node mode: no routing to
	// compute, no probe goroutines to run.
	ring    *cluster.Ring
	tracker *cluster.Tracker
	opts    Options

	// sleep and now are the backoff and breaker clocks, and policy the
	// breakers' trip rule, swappable in tests for deterministic timing
	// and small windows.
	sleep  func(ctx context.Context, d time.Duration) error
	now    func() time.Time
	policy breakerPolicy
}

// New creates a client for the service at baseURL, plus any additional
// cluster nodes in opts.Addrs (baseURL may be "" when Addrs is set).
// Each URL's scheme picks that node's transport:
//
//	http://host:port   HTTP/JSON (also https://)
//	tcp://host:port    binary wire protocol over TCP
//	unix:///path.sock  binary wire protocol over a unix socket
//
// Every client behavior — retries, deadlines, breakers, sentinel errors,
// server-paced backoff, ring routing and failover — is
// transport-independent.
func New(baseURL string, opts Options) (*Client, error) {
	raw := make([]string, 0, 1+len(opts.Addrs))
	if baseURL != "" {
		raw = append(raw, baseURL)
	}
	raw = append(raw, opts.Addrs...)
	if len(raw) == 0 {
		return nil, errors.New("client: no server address (empty base URL and no Addrs)")
	}
	addrs := make([]string, 0, len(raw))
	for _, a := range raw {
		canon, err := canonicalAddr(a)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, canon)
	}
	c := &Client{
		opts:   opts.resolved(),
		sleep:  sleepCtx,
		now:    time.Now,
		policy: breakerPolicy{threshold: 0.5, window: 10, cooldown: time.Second},
	}
	// The ring dedupes and sorts; building nodes from its Addrs keeps
	// node indices aligned with ring orders on every client regardless
	// of how the caller listed the addresses.
	ring := cluster.NewRing(addrs, 0)
	for _, addr := range ring.Addrs() {
		c.nodes = append(c.nodes, newNode(addr))
	}
	if len(c.nodes) > 1 {
		c.ring = ring
		probes := make([]cluster.Probe, len(c.nodes))
		for i, n := range c.nodes {
			n := n
			probes[i] = func(ctx context.Context) (bool, error) {
				return c.probeNode(ctx, n)
			}
		}
		c.tracker = cluster.NewTracker(probes, c.opts.ProbeInterval)
	}
	return c, nil
}

// canonicalAddr normalizes one node URL so that textual variants of
// the same address ("http://h:1/" vs "http://h:1") collapse to one
// ring key, and validates the scheme.
func canonicalAddr(a string) (string, error) {
	u, err := url.Parse(a)
	if err != nil {
		return "", fmt.Errorf("client: node URL %q: %w", a, err)
	}
	switch u.Scheme {
	case "http", "https":
		return strings.TrimRight(u.String(), "/"), nil
	case "tcp":
		if u.Host == "" {
			return "", fmt.Errorf("client: node URL %q: tcp scheme requires host:port", a)
		}
		return "tcp://" + u.Host, nil
	case "unix":
		path := u.Path
		if path == "" {
			path = u.Opaque
		}
		if path == "" {
			return "", fmt.Errorf("client: node URL %q: unix scheme requires a socket path", a)
		}
		return "unix://" + path, nil
	default:
		return "", fmt.Errorf("client: node URL %q: scheme must be http, https, tcp, or unix", a)
	}
}

// newNode builds one node's transport from its canonical address
// (canonicalAddr admits exactly the schemes handled here).
func newNode(addr string) *node {
	n := &node{addr: addr, breakers: make(map[string]*breaker)}
	if scheme, rest, _ := strings.Cut(addr, "://"); scheme == "tcp" || scheme == "unix" {
		n.wire = wire.Dial(scheme, rest, wire.ClientOptions{})
		return n
	}
	n.base = addr
	// A dedicated pooled transport per HTTP node: connections are
	// reused across requests.
	n.http = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
	return n
}

// close releases one node's transport.
func (n *node) close() {
	if n.wire != nil {
		n.wire.Close()
		return
	}
	if n.http != nil {
		n.http.CloseIdleConnections()
	}
}

// Close stops the health prober (waiting for its goroutines — a closed
// client leaks none) and releases every node's transport (idle HTTP
// connections, wire connection pools). The client must not be used
// after.
func (c *Client) Close() {
	if c.tracker != nil {
		c.tracker.Close()
	}
	for _, n := range c.nodes {
		n.close()
	}
}

// NodeStats is one cluster node's client-side view: its health state
// as the background prober last saw it and its traffic counters.
type NodeStats struct {
	// Addr is the node's canonical address.
	Addr string `json:"addr"`
	// State is "up", "degraded", or "down" ("up" always, in
	// single-node mode — there is no prober to say otherwise).
	State string `json:"state"`
	// Served counts successful calls answered by this node.
	Served uint64 `json:"served"`
	// Failovers counts served calls that were routed here after the
	// preferred node failed or short-circuited.
	Failovers uint64 `json:"failovers"`
}

// Nodes snapshots every cluster node in ring (address-sorted) order.
func (c *Client) Nodes() []NodeStats {
	out := make([]NodeStats, len(c.nodes))
	for i, n := range c.nodes {
		st := cluster.StateUp
		if c.tracker != nil {
			st = c.tracker.State(i)
		}
		out[i] = NodeStats{
			Addr:      n.addr,
			State:     st.String(),
			Served:    n.served.Load(),
			Failovers: n.failovers.Load(),
		}
	}
	return out
}

// probeNode is the tracker's health probe: one raw healthz exchange
// (no retries, no breaker — the probe is the mechanism that decides
// when a node is worth retrying). A 200 whose body reports
// status "degraded" marks the node degraded rather than down.
func (c *Client) probeNode(ctx context.Context, n *node) (degraded bool, err error) {
	data, err := n.control(ctx, service.OpHealthz, nil)
	if err != nil {
		return false, err
	}
	var h service.Health
	if json.Unmarshal(data, &h) == nil && h.Status == "degraded" {
		return true, nil
	}
	return false, nil
}

// control is one control-plane exchange against this node: the op in
// a wire control frame, or its HTTP route. A GET carries its JSON body's fields
// as query parameters instead (the server's handler reverses this).
func (n *node) control(ctx context.Context, op service.Op, body []byte) ([]byte, error) {
	if n.wire != nil {
		data, err := n.wire.Call(ctx, op, body)
		return data, wireErr(err)
	}
	method, path := op.Route()
	if method == http.MethodGet && body != nil {
		var fields map[string]string
		if err := json.Unmarshal(body, &fields); err != nil {
			return nil, fmt.Errorf("client: encode request: %w", err)
		}
		query := url.Values{}
		for k, v := range fields {
			query.Set(k, v)
		}
		path, body = path+"?"+query.Encode(), nil
	}
	return n.attempt(ctx, method, path, body)
}

// wireErr translates a wire-transport failure into the client's error
// model: typed server replies become *APIError (so the sentinel
// mapping, retry classification, and breaker evidence are exactly the
// HTTP transport's — the error frame carries the same status the HTTP
// handler would have sent); transport failures pass through and count
// as retryable, like an HTTP connection error.
func wireErr(err error) error {
	if err == nil {
		// Early out before taking &se below: its escape into
		// errors.As's any parameter would cost the success path one
		// allocation per call.
		return nil
	}
	var se *wire.ServerError
	if errors.As(err, &se) {
		return &APIError{
			Status:     se.Status,
			Message:    se.Message,
			RetryAfter: time.Duration(se.RetryAfter) * time.Second,
		}
	}
	return err
}

// predictMethod and predictPath are the HTTP route of the JSON predict
// body (also the predict breaker's endpoint name on every transport).
var predictMethod, predictPath = service.OpPredict.Route()

// Predict runs one prediction against model's live version, retried
// on retryable failures. Each attempt's remaining time rides to the
// server as deadline_ms, so the request is cancelled server-side, not
// just abandoned.
func (c *Client) Predict(ctx context.Context, model, statement string) (Prediction, error) {
	pr, _, err := c.PredictInto(ctx, model, statement, nil)
	return pr, err
}

// PredictInto is Predict with caller-owned result storage: class
// probabilities are decoded into probs (grown only when capacity is
// insufficient) and the returned slice is passed back in on the next
// call. Over a wire transport with Options.Timeout == 0, a warm
// PredictInto performs zero allocations end to end — the service
// layer's PredictInto contract extended through the client. Callers
// that retain the result across calls must copy Probs.
func (c *Client) PredictInto(ctx context.Context, model, statement string, probs []float64) (Prediction, []float64, error) {
	// runOp only calls the attempt, so this closure (and the probs it
	// updates) stays on the stack: the warm path allocates nothing.
	pr, err := runOp(c, ctx, model, predictPath, true, func(ctx context.Context, n *node) (Prediction, error) {
		if n.wire != nil {
			pr, out, err := n.wire.PredictInto(ctx, model, statement, probs)
			probs = out
			return pr, wireErr(err)
		}
		prs, err := n.predictHTTP(ctx, service.PredictRequest{Model: model, Statement: statement})
		if err != nil {
			return Prediction{}, err
		}
		if len(prs) != 1 {
			return Prediction{}, fmt.Errorf("client: predict returned %d results for 1 statement", len(prs))
		}
		return prs[0], nil
	})
	return pr, probs, err
}

// predictHTTP is one predict over a node's HTTP transport, shipping
// the attempt's remaining time as req's deadline_ms (the JSON round
// trip allocates; the 0-alloc contract is the wire transport's).
func (n *node) predictHTTP(ctx context.Context, req service.PredictRequest) ([]Prediction, error) {
	dl, err := service.DeadlineMs(ctx)
	if err != nil {
		return nil, err
	}
	req.DeadlineMs = int(dl)
	body, err := marshalBody(req)
	if err != nil {
		return nil, err
	}
	data, err := n.attempt(ctx, predictMethod, predictPath, body)
	if err != nil {
		return nil, err
	}
	var resp service.PredictResponse
	if err := unmarshalBody(data, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// PredictBatch runs one prediction per statement, in input order, with
// the same retry semantics as Predict.
func (c *Client) PredictBatch(ctx context.Context, model string, statements []string) ([]Prediction, error) {
	if len(statements) == 0 {
		return nil, nil
	}
	out, err := runOp(c, ctx, model, predictPath, true, func(ctx context.Context, n *node) ([]Prediction, error) {
		if n.wire != nil {
			prs, err := n.wire.PredictBatch(ctx, model, statements)
			return prs, wireErr(err)
		}
		return n.predictHTTP(ctx, service.PredictRequest{Model: model, Statements: statements})
	})
	if err != nil {
		return nil, err
	}
	if len(out) != len(statements) {
		return nil, fmt.Errorf("client: predict returned %d results for %d statements",
			len(out), len(statements))
	}
	return out, nil
}

// Models lists every registered model (from whichever node the empty
// routing key prefers, failing over like any read).
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out []ModelInfo
	if err := c.call(ctx, "", service.OpModels, nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Deploy makes version of model live (version 0 = latest) on a pool
// built from the server's template. Deploys are not retried: the
// caller decides whether re-issuing one is appropriate. In cluster
// mode the deploy routes to the model's ring-preferred node — writes
// for one model funnel through one node — and the shared store
// propagates it to the rest of the cluster.
func (c *Client) Deploy(ctx context.Context, model string, version int) (ModelInfo, error) {
	req := service.DeployRequest{Model: model, Version: version}
	var info ModelInfo
	if err := c.call(ctx, model, service.OpDeploy, req, &info, false); err != nil {
		return ModelInfo{}, err
	}
	return info, nil
}

// Feedback logs the observed ground-truth outcome for a served
// statement (class for classification tasks, value in raw units for
// regression tasks) to the serving node's ingest log, where the online
// pipeline's trainers pick it up. Routed by model key so one model's
// feedback lands on one node's log. Not retried — like Deploy, it
// changes state (a retry could double-count the observation).
func (c *Client) Feedback(ctx context.Context, model, statement string, class int, value float64) error {
	req := service.IngestRequest{Model: model, Statement: statement, Class: class, Value: value}
	var resp service.IngestResponse
	return c.call(ctx, model, service.OpIngest, req, &resp, false)
}

// Stats fetches model's live-deployment service metrics (throughput,
// latency percentiles, per-model rejection counts) from the model's
// ring-preferred node. Stats are per node, not cluster-aggregated.
func (c *Client) Stats(ctx context.Context, model string) (ModelStats, error) {
	var st ModelStats
	err := c.call(ctx, model, service.OpStats, service.StatsRequest{Model: model}, &st, true)
	return st, err
}

// GCResult is one model's outcome of a retention pass, as served by
// /v1/admin/gc.
type GCResult = service.GCResult

// GC runs a retention pass now on the node the empty routing key
// prefers, returning what each model pruned and kept. Not retried —
// like Deploy, it changes state.
func (c *Client) GC(ctx context.Context) ([]GCResult, error) {
	var resp service.GCResponse
	if err := c.call(ctx, "", service.OpGC, nil, &resp, false); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Healthz probes readiness: nil once a node is ready to take traffic,
// the last node's error while every node is warming up, draining, or
// unreachable (ErrUnavailable via *APIError for a warming node). Nodes
// are polled in ring-address order with no retries and no breaker — a
// readiness probe reports, it does not wait.
func (c *Client) Healthz(ctx context.Context) error {
	var lastErr error
	for _, n := range c.nodes {
		atCtx, cancel := c.attemptCtx(ctx)
		_, err := n.control(atCtx, service.OpHealthz, nil)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return lastErr
}

// WaitReady polls Healthz until some node reports ready or ctx
// expires, for boot orchestration.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		err := c.Healthz(ctx)
		if err == nil {
			return nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("client: server not ready: %w (last: %v)", ctxErr, err)
		}
		if err := c.sleep(ctx, 20*time.Millisecond); err != nil {
			return fmt.Errorf("client: server not ready: %w", err)
		}
	}
}

// attemptFunc is one transport attempt against one node: an HTTP round
// trip or a wire protocol exchange. The retry, failover, and
// breaker layers below are written against this shape, so both
// transports — and the typed predict path and the control plane —
// share one policy implementation and cannot drift.
type attemptFunc[T any] func(ctx context.Context, n *node) (T, error)

// route writes the failover order for key into dst's backing array
// (growing it only when the cluster has more nodes than it holds) and
// returns it as node indices: ring order, stably partitioned so nodes
// the prober believes up come first, then degraded, then down. Down
// nodes stay in the order — when everything better has failed, a
// request is the best probe there is.
func (c *Client) route(key string, dst []int) []int {
	if c.ring == nil {
		return append(dst[:0], 0)
	}
	s := c.ring.OrderInto(key, dst)
	// Stable insertion sort by tracker state: clusters are small and
	// the sort must not allocate. Stability preserves ring order within
	// each state class.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && c.tracker.State(s[j-1]) > c.tracker.State(s[j]); j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	return s
}

// runOp performs op with the client's retry budget (when retryable),
// failing over across the key's route: a
// retryable failure advances to the next node (consuming budget), an
// open breaker skips to the next node without consuming budget, and a
// full cycle of short-circuits fails fast with ErrCircuitOpen. This is
// the client's only retry loop. It never retains op, and the route
// lives on its stack for clusters of up to 8 nodes, so a caller passing
// a non-escaping closure pays no allocation for the policy.
func runOp[T any](c *Client, ctx context.Context, key, endpoint string, retryable bool, op attemptFunc[T]) (T, error) {
	var scratch [8]int
	order := c.route(key, scratch[:0])
	retries := c.opts.Retries
	if !retryable {
		retries = 0
	}
	var lastErr, shortErr error
	retried, shorts, pos := 0, 0, 0
	for {
		idx := order[pos%len(order)]
		n := c.nodes[idx]
		v, err := opOnce(c, ctx, n, endpoint, op)
		if err == nil {
			n.served.Add(1)
			if pos > 0 {
				n.failovers.Add(1)
			}
			return v, nil
		}
		if errors.Is(err, ErrCircuitOpen) {
			// A short-circuit is free (no network): skip to the next
			// node without consuming the retry budget. For ops with no
			// budget (deploys) this is still correct — the tripped node
			// was never attempted, so this is routing, not retrying.
			shortErr = err
			shorts++
			if shorts >= len(order) || ctx.Err() != nil {
				break
			}
			pos++
			continue
		}
		shorts = 0
		lastErr = err
		if retried >= retries || !isRetryable(err) || ctx.Err() != nil {
			break
		}
		pos++
		// Failing over to a fresh node happens immediately — pausing
		// first would waste exactly the time failover exists to save.
		// The backoff (or the server's Retry-After) applies only once
		// the retry re-targets a node already tried this op (single
		// node, or a wrapped cycle): hammering the same node is what
		// retries-with-backoff exist to avoid.
		if pos >= len(order) && c.sleep(ctx, retryDelay(err, backoff<<retried)) != nil {
			break
		}
		retried++
	}
	if lastErr == nil {
		lastErr = shortErr
	}
	var zero T
	return zero, lastErr
}

// call performs one control-plane API call — req (nil for the ops that
// take no input) is sent as the op's JSON body and the reply document
// decoded into out — with the client's retry budget when retryable.
func (c *Client) call(ctx context.Context, key string, op service.Op, req, out any, retryable bool) error {
	body, err := marshalBody(req)
	if err != nil {
		return err
	}
	_, path := op.Route()
	data, err := runOp(c, ctx, key, path, retryable, func(ctx context.Context, n *node) ([]byte, error) {
		return n.control(ctx, op, body)
	})
	if err != nil {
		return err
	}
	return unmarshalBody(data, out)
}

// retryDelay picks the pause before the next attempt: the server's
// Retry-After hint when the failure carried one, the exponential
// backoff otherwise.
func retryDelay(err error, backoff time.Duration) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter
	}
	return backoff
}

// opOnce performs a single attempt against one node, applying the
// per-attempt timeout and the node's endpoint circuit breaker. While
// the breaker is open the attempt fails with ErrCircuitOpen before any
// network I/O.
func opOnce[T any](c *Client, ctx context.Context, n *node, endpoint string, op attemptFunc[T]) (T, error) {
	br := c.breakerFor(n, endpoint)
	if br != nil {
		if err := br.allow(c.now(), c.policy.cooldown); err != nil {
			var zero T
			return zero, err
		}
	}
	atCtx, cancel := c.attemptCtx(ctx)
	defer cancel()
	v, err := op(atCtx, n)
	c.recordBreaker(br, ctx, err)
	return v, err
}

// attemptCtx derives one attempt's context: ctx bounded by the
// per-attempt Timeout when one is configured.
func (c *Client) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.Timeout > 0 {
		return context.WithTimeout(ctx, c.opts.Timeout)
	}
	return ctx, func() {}
}

// recordBreaker feeds one attempt outcome into br (nil for the exempt
// readiness probe). Expiry of the caller's own context is not evidence
// about server health; the attempt records as a success so the
// breaker's window is left alone (and a half-open probe is released for
// the next real attempt).
func (c *Client) recordBreaker(br *breaker, outer context.Context, err error) {
	if br == nil {
		return
	}
	if err != nil && outer.Err() != nil {
		br.record(false, c.now(), c.policy.threshold)
		return
	}
	br.record(err != nil && isBreakerFailure(err), c.now(), c.policy.threshold)
}

// isBreakerFailure classifies an attempt error for the breaker: server
// trouble (5xx, 429, transport failures) opens circuits; client
// mistakes (404, 409, 4xx) do not — the server answered fine.
func isBreakerFailure(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.retryable()
	}
	return true
}

// breakerFor returns n's circuit breaker for path, creating it on
// first use; nil for the exempt readiness probe.
func (c *Client) breakerFor(n *node, endpoint string) *breaker {
	if endpoint == "/v1/healthz" {
		return nil
	}
	n.bmu.Lock()
	defer n.bmu.Unlock()
	br, ok := n.breakers[endpoint]
	if !ok {
		br = newBreaker(c.policy.window)
		n.breakers[endpoint] = br
	}
	return br
}

// Breakers snapshots every endpoint circuit breaker this client has
// touched, sorted by endpoint. In cluster mode each endpoint is
// prefixed with its node's address (breakers are per node).
func (c *Client) Breakers() []BreakerStats {
	var out []BreakerStats
	for _, n := range c.nodes {
		n.bmu.Lock()
		endpoints := make([]string, 0, len(n.breakers))
		for ep := range n.breakers {
			endpoints = append(endpoints, ep)
		}
		sort.Strings(endpoints)
		brs := make([]*breaker, 0, len(endpoints))
		for _, ep := range endpoints {
			brs = append(brs, n.breakers[ep])
		}
		n.bmu.Unlock()
		for i, ep := range endpoints {
			if len(c.nodes) > 1 {
				ep = n.addr + ep
			}
			out = append(out, brs[i].snapshot(ep))
		}
	}
	return out
}

// attempt is one raw HTTP round trip against this node (the
// per-attempt timeout is applied by opOnce, shared with the wire
// transport).
func (n *node) attempt(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: read response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		return nil, apiErr
	}
	return data, nil
}

// isRetryable classifies an attempt error: retryable API statuses and
// transport-level failures (connection refused/reset, a per-attempt
// timeout), but never a short-circuit — retrying into an open breaker
// is exactly the hammering it exists to stop (failover handles open
// breakers by moving to another node instead). Expiry of the caller's
// own context stops the retry loop separately — their deadline is an
// instruction, not a failure to paper over.
func isRetryable(err error) bool {
	if errors.Is(err, ErrCircuitOpen) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.retryable()
	}
	return true
}

func marshalBody(in any) ([]byte, error) {
	if in == nil {
		return nil, nil
	}
	data, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	return data, nil
}

func unmarshalBody(data []byte, out any) error {
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
