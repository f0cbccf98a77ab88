package client

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/wire"
)

// testNode is one cluster member for the tests: an HTTP server over a
// (usually shared) service, with request counters and switchable
// failure injection.
type testNode struct {
	srv      *httptest.Server
	predicts atomic.Uint64
	deploys  atomic.Uint64
	fail     atomic.Bool // respond 500 to everything, healthz included
}

func (n *testNode) addr() string { return n.srv.URL }

func newTestNode(t *testing.T, svc *service.Service) *testNode {
	t.Helper()
	n := &testNode{}
	h := service.NewHandler(svc)
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/predict":
			n.predicts.Add(1)
		case "/v1/deploy":
			n.deploys.Add(1)
		}
		if n.fail.Load() {
			http.Error(w, `{"error":"injected node failure"}`, http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

// newCluster stands up count HTTP nodes over ONE shared service (so
// every node serves bit-identical bits) plus a cluster client on them.
func newCluster(t *testing.T, count int, opts Options) (*service.Service, []*testNode, *Client) {
	t.Helper()
	svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}})
	if _, err := svc.Swap("errors", testModel()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	nodes := make([]*testNode, count)
	for i := range nodes {
		nodes[i] = newTestNode(t, svc)
		opts.Addrs = append(opts.Addrs, nodes[i].addr())
	}
	c, err := New("", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return svc, nodes, c
}

// byRingOrder returns nodes sorted into key's ring preference order,
// computed exactly the way the client computes it.
func byRingOrder(t *testing.T, key string, nodes []*testNode) []*testNode {
	t.Helper()
	addrs := make([]string, len(nodes))
	byAddr := make(map[string]*testNode, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr()
		byAddr[n.addr()] = n
	}
	out := make([]*testNode, 0, len(nodes))
	ring := cluster.NewRing(addrs, 0)
	for _, i := range ring.OrderInto(key, nil) {
		out = append(out, byAddr[ring.Addrs()[i]])
	}
	return out
}

// idleProbes keeps the background health prober out of a test's way:
// the first probe fires only after up to a quarter hour of jitter.
const idleProbes = time.Hour

// TestClusterFailover: with the model's preferred node failing every
// request, the cluster client completes every prediction — correctly —
// through the fallback nodes, burning retry budget but never failing.
func TestClusterFailover(t *testing.T) {
	// Eight requests feed the primary's breaker eight failures: under
	// its window, so the breaker stays out of the way.
	svc, nodes, c := newCluster(t, 3, Options{ProbeInterval: idleProbes})
	instantSleep(c)
	ctx := context.Background()
	order := byRingOrder(t, "errors", nodes)
	order[0].fail.Store(true)

	stmts := testStatements(8)
	for _, stmt := range stmts {
		got, err := c.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatalf("predict through failing primary: %v", err)
		}
		want, err := svc.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Version != want.Version {
			t.Fatalf("failover prediction = %+v, want %+v", got, want)
		}
	}
	if order[0].predicts.Load() == 0 {
		t.Fatal("primary was never attempted — wrong node under test")
	}
	var failovers uint64
	for _, ns := range c.Nodes() {
		failovers += ns.Failovers
	}
	if failovers != uint64(len(stmts)) {
		t.Fatalf("failovers = %d, want %d (every request failed over once)", failovers, len(stmts))
	}
}

// TestClusterBreakerShortCircuitsToFallback is the breaker + failover
// interaction contract: once the preferred node's breaker is open,
// requests go straight to the fallback with ZERO network calls to the
// tripped node, and after the cooldown a half-open probe re-admits it.
func TestClusterBreakerShortCircuitsToFallback(t *testing.T) {
	_, nodes, c := newCluster(t, 2, Options{ProbeInterval: idleProbes})
	c.policy.window = 4
	instantSleep(c)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	ctx := context.Background()
	order := byRingOrder(t, "errors", nodes)
	primary, fallback := order[0], order[1]
	stmt := testStatements(1)[0]

	// Fill the primary's predict-breaker window with failures. Each
	// request attempts the primary (fails), then succeeds on the
	// fallback — so the client never returns an error even while
	// gathering the evidence that trips the circuit.
	primary.fail.Store(true)
	for i := 0; i < 4; i++ {
		if _, err := c.Predict(ctx, "errors", stmt); err != nil {
			t.Fatalf("predict %d during window fill: %v", i, err)
		}
	}

	// The node recovers, but its breaker is still open: traffic must
	// short-circuit to the fallback without touching it.
	primary.fail.Store(false)
	primary.predicts.Store(0)
	for i := 0; i < 5; i++ {
		if _, err := c.Predict(ctx, "errors", stmt); err != nil {
			t.Fatalf("predict %d with open breaker: %v", i, err)
		}
	}
	if got := primary.predicts.Load(); got != 0 {
		t.Fatalf("tripped node saw %d network calls, want 0 (short-circuit must be free)", got)
	}
	if fallback.predicts.Load() < 5 {
		t.Fatalf("fallback served %d, want >= 5", fallback.predicts.Load())
	}

	// After the cooldown, one half-open probe goes to the primary; its
	// success closes the circuit and re-admits the node.
	now = now.Add(2 * time.Second)
	if _, err := c.Predict(ctx, "errors", stmt); err != nil {
		t.Fatalf("half-open probe predict: %v", err)
	}
	if got := primary.predicts.Load(); got != 1 {
		t.Fatalf("half-open probe: primary saw %d calls, want exactly 1", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Predict(ctx, "errors", stmt); err != nil {
			t.Fatalf("predict %d after re-admission: %v", i, err)
		}
	}
	if got := primary.predicts.Load(); got != 4 {
		t.Fatalf("after re-admission primary saw %d calls, want 4 (probe + 3)", got)
	}
}

// TestTrackerReroutesAndReadmits: health probes demote a dead node so
// requests skip it entirely, and re-admit it once it answers again.
func TestTrackerReroutesAndReadmits(t *testing.T) {
	_, nodes, c := newCluster(t, 2, Options{ProbeInterval: 5 * time.Millisecond})
	instantSleep(c)
	ctx := context.Background()
	order := byRingOrder(t, "errors", nodes)
	primary := order[0]
	stmt := testStatements(1)[0]

	stateOf := func(addr string) string {
		for _, ns := range c.Nodes() {
			if ns.Addr == addr {
				return ns.State
			}
		}
		t.Fatalf("no NodeStats for %s", addr)
		return ""
	}
	waitState := func(addr, want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for stateOf(addr) != want {
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became %s (state %s)", addr, want, stateOf(addr))
			}
			time.Sleep(time.Millisecond)
		}
	}

	primary.fail.Store(true)
	waitState(primary.addr(), "down")

	// A down primary is not even attempted while the fallback answers.
	primary.predicts.Store(0)
	for i := 0; i < 10; i++ {
		if _, err := c.Predict(ctx, "errors", stmt); err != nil {
			t.Fatalf("predict %d with primary down: %v", i, err)
		}
	}
	if got := primary.predicts.Load(); got != 0 {
		t.Fatalf("down node saw %d predict calls, want 0", got)
	}

	// Recovery: probes re-admit, traffic returns to ring order.
	primary.fail.Store(false)
	waitState(primary.addr(), "up")
	for i := 0; i < 5; i++ {
		if _, err := c.Predict(ctx, "errors", stmt); err != nil {
			t.Fatalf("predict %d after recovery: %v", i, err)
		}
	}
	if primary.predicts.Load() == 0 {
		t.Fatal("re-admitted primary saw no traffic")
	}
}

// TestDeployRoutesToPreferredNode: writes for one model funnel through
// its ring-preferred node.
func TestDeployRoutesToPreferredNode(t *testing.T) {
	_, nodes, c := newCluster(t, 3, Options{ProbeInterval: idleProbes})
	ctx := context.Background()
	if _, err := c.Deploy(ctx, "errors", 0); err != nil {
		t.Fatal(err)
	}
	order := byRingOrder(t, "errors", nodes)
	if got := order[0].deploys.Load(); got != 1 {
		t.Fatalf("preferred node saw %d deploys, want 1", got)
	}
	for _, n := range order[1:] {
		if got := n.deploys.Load(); got != 0 {
			t.Fatalf("non-preferred node saw %d deploys, want 0", got)
		}
	}
}

// TestMixedSchemeCluster: an HTTP node and a wire node form one
// cluster; predictions succeed whichever transport the ring picks and
// are bit-identical to direct service calls.
func TestMixedSchemeCluster(t *testing.T) {
	svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}})
	if _, err := svc.Swap("errors", testModel()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	httpSrv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(httpSrv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wsrv := wire.NewServer(svc, wire.ServerOptions{})
	done := make(chan error, 1)
	go func() { done <- wsrv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := wsrv.Shutdown(ctx); err != nil {
			t.Errorf("wire shutdown: %v", err)
		}
		<-done
	})

	c, err := New(httpSrv.URL, Options{
		Addrs:         []string{"tcp://" + ln.Addr().String()},
		ProbeInterval: idleProbes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if got := len(c.Nodes()); got != 2 {
		t.Fatalf("cluster has %d nodes, want 2", got)
	}

	ctx := context.Background()
	for _, stmt := range testStatements(5) {
		got, err := c.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := svc.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Version != want.Version {
			t.Fatalf("prediction = %+v, want %+v", got, want)
		}
		for i := range want.Probs {
			if math.Float64bits(got.Probs[i]) != math.Float64bits(want.Probs[i]) {
				t.Fatal("probs not bit-identical through mixed-scheme cluster")
			}
		}
	}
	if infos, err := c.Models(ctx); err != nil || len(infos) != 1 {
		t.Fatalf("Models = %+v, %v", infos, err)
	}
}

// TestAllNodesShortCircuit: when every node's breaker is open the call
// fails fast with ErrCircuitOpen instead of spinning through the ring.
func TestAllNodesShortCircuit(t *testing.T) {
	_, nodes, c := newCluster(t, 2, Options{
		ProbeInterval: idleProbes,
		Retries:       8, // plenty of budget: the windows still fill
	})
	c.policy.window = 3
	instantSleep(c)
	ctx := context.Background()
	stmt := testStatements(1)[0]
	for _, n := range nodes {
		n.fail.Store(true)
	}
	// Trip both nodes' predict breakers (each request feeds failures to
	// every node it fails over through).
	for i := 0; i < 6; i++ {
		c.Predict(ctx, "errors", stmt) //nolint:errcheck — failures expected
	}
	for _, n := range nodes {
		n.predicts.Store(0)
	}
	if _, err := c.Predict(ctx, "errors", stmt); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	for _, n := range nodes {
		if got := n.predicts.Load(); got != 0 {
			t.Fatalf("node saw %d calls with all breakers open, want 0", got)
		}
	}
}

// TestClientZeroAllocWirePredict extends the 0-allocs/op guard end to
// end: a warm PredictInto through the full repro/client stack (routing,
// breaker, retry loop) over a real wire TCP loopback allocates nothing
// on either side of the socket.
func TestClientZeroAllocWirePredict(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	// Timeout 0: context.WithTimeout allocates, so latency-bounded
	// callers pay ~3 allocs/op for the timer — the documented trade.
	_, c := newWireService(t, "tcp", Options{})
	ctx := context.Background()
	stmt := testStatements(1)[0]
	var probs []float64
	var err error
	for i := 0; i < 200; i++ {
		if _, probs, err = c.PredictInto(ctx, "errors", stmt, probs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if _, probs, err = c.PredictInto(ctx, "errors", stmt, probs); err != nil {
			t.Fatal(err)
		}
	})
	// Tolerate the occasional runtime-internal malloc but fail on any
	// per-op allocation.
	if allocs > 0.05 {
		t.Errorf("warm client predict over wire: %.2f allocs/op, want 0", allocs)
	}
}

// TestClientPredictBatchAllocs guards the batch path's allocation
// count: a warm 16-statement PredictBatch over unix wire runs the
// same non-escaping attempt closure as PredictInto, so what remains is
// the result slice and its decode, not the retry policy.
func TestClientPredictBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	_, c := newWireService(t, "unix", Options{})
	ctx := context.Background()
	stmts := testStatements(16)
	if len(stmts) != 16 {
		t.Fatalf("%d test statements, want 16", len(stmts))
	}
	for i := 0; i < 50; i++ {
		if _, err := c.PredictBatch(ctx, "errors", stmts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.PredictBatch(ctx, "errors", stmts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("warm 16-statement client batch over wire: %.2f allocs/op, want <= 5", allocs)
	}
}
