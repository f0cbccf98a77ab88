package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock makes breaker timing deterministic: tests advance it
// explicitly and nothing sleeps for real.
type fakeClock struct {
	mu  atomic.Int64 // nanoseconds since an arbitrary epoch
	t0  time.Time
	rec []time.Duration // durations handed to sleep
}

func newFakeClock() *fakeClock {
	return &fakeClock{t0: time.Unix(1000, 0)}
}

func (f *fakeClock) now() time.Time          { return f.t0.Add(time.Duration(f.mu.Load())) }
func (f *fakeClock) advance(d time.Duration) { f.mu.Add(int64(d)) }

// install wires the clock into a client: now() reads the fake time and
// sleep() advances it (recording the requested duration) instead of
// waiting.
func (f *fakeClock) install(c *Client) {
	c.now = f.now
	c.sleep = func(ctx context.Context, d time.Duration) error {
		f.rec = append(f.rec, d)
		f.advance(d)
		return ctx.Err()
	}
}

// failingServer serves `status` for /v1/predict until healed, counting
// every request that actually reaches it.
type failingServer struct {
	status int32 // 0 = healthy
	calls  atomic.Int64
}

func (s *failingServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.calls.Add(1)
		if st := atomic.LoadInt32(&s.status); st != 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(int(st))
			w.Write([]byte(`{"error":"synthetic failure"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"results":[{"name":"errors","version":1,"classification":true,"class":0,"probs":[1]}]}`))
	})
}

// TestBreakerOpensAndRecovers drives the full closed → open →
// half-open → closed cycle under a deterministic clock: sustained 5xx
// trips the breaker, short-circuited calls return ErrCircuitOpen
// without touching the network, and after the cooldown one probe
// against the healed server closes the circuit again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	fs := &failingServer{status: http.StatusInternalServerError}
	srv := httptest.NewServer(fs.handler())
	defer srv.Close()
	c, err := New(srv.URL, Options{Retries: -1}) // isolate the breaker from the retry loop
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.policy.window = 4
	clk := newFakeClock()
	clk.install(c)
	ctx := context.Background()

	// Four straight 500s fill the window and trip the breaker.
	for i := 0; i < 4; i++ {
		if _, err := c.Predict(ctx, "errors", "SELECT 1"); err == nil {
			t.Fatal("predict against failing server succeeded")
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("breaker tripped after %d failures, want 4", i)
		}
	}
	if got := fs.calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want 4", got)
	}

	// Open: calls short-circuit, the server sees nothing.
	for i := 0; i < 5; i++ {
		if _, err := c.Predict(ctx, "errors", "SELECT 1"); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
		}
	}
	if got := fs.calls.Load(); got != 4 {
		t.Fatalf("open breaker leaked %d calls to the network", got-4)
	}
	st := c.Breakers()
	if len(st) != 1 || st[0].Endpoint != "/v1/predict" || st[0].State != BreakerOpen {
		t.Fatalf("Breakers() = %+v, want open /v1/predict", st)
	}
	if st[0].Opened != 1 || st[0].ShortCircuited != 5 || st[0].Failures != 4 {
		t.Fatalf("Breakers() = %+v, want opened=1 short_circuited=5 failures=4", st)
	}

	// Cooldown elapsed, server still sick: the half-open probe fails and
	// re-opens the circuit — exactly one network call spent.
	clk.advance(time.Second)
	if _, err := c.Predict(ctx, "errors", "SELECT 1"); errors.Is(err, ErrCircuitOpen) || err == nil {
		t.Fatalf("half-open probe err = %v, want the server's 500", err)
	}
	if got := fs.calls.Load(); got != 5 {
		t.Fatalf("server saw %d calls, want 5 (one probe)", got)
	}
	if _, err := c.Predict(ctx, "errors", "SELECT 1"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after failed probe err = %v, want ErrCircuitOpen", err)
	}

	// Server heals; after the next cooldown the probe succeeds and the
	// circuit closes for good.
	atomic.StoreInt32(&fs.status, 0)
	clk.advance(time.Second)
	for i := 0; i < 6; i++ {
		if _, err := c.Predict(ctx, "errors", "SELECT 1"); err != nil {
			t.Fatalf("call %d after recovery: %v", i, err)
		}
	}
	st = c.Breakers()
	if st[0].State != BreakerClosed || st[0].Opened != 2 {
		t.Fatalf("Breakers() after recovery = %+v, want closed, opened=2", st)
	}
}

// TestBreakerHealthzExempt: readiness polling must keep working while
// every other endpoint is tripped, or boot orchestration could never
// observe a recovery.
func TestBreakerHealthzExempt(t *testing.T) {
	fs := &failingServer{status: http.StatusServiceUnavailable}
	srv := httptest.NewServer(fs.handler())
	defer srv.Close()
	c, err := New(srv.URL, Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.policy.window = 2
	clk := newFakeClock()
	clk.install(c)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		c.Predict(ctx, "errors", "SELECT 1") // trips /v1/predict
	}
	if _, err := c.Predict(ctx, "errors", "SELECT 1"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("predict err = %v, want ErrCircuitOpen", err)
	}
	before := fs.calls.Load()
	for i := 0; i < 3; i++ {
		if err := c.Healthz(ctx); errors.Is(err, ErrCircuitOpen) {
			t.Fatal("healthz was short-circuited")
		}
	}
	if got := fs.calls.Load() - before; got != 3 {
		t.Fatalf("healthz reached the server %d times, want 3", got)
	}
}

// TestRetryAfterHonored pins the Retry-After contract under a
// deterministic clock: a 503 carrying Retry-After: 1 is retried after
// exactly the server's hint (1s, not the 50ms exponential guess), to
// the tick.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`))
			return
		}
		w.Write([]byte(`{"results":[{"name":"errors","version":1,"classification":true,"class":0}]}`))
	}))
	defer srv.Close()
	c, err := New(srv.URL, Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clk := newFakeClock()
	clk.install(c)
	if _, err := c.Predict(context.Background(), "errors", "SELECT 1"); err != nil {
		t.Fatalf("predict after Retry-After waits: %v", err)
	}
	if len(clk.rec) != 2 {
		t.Fatalf("client slept %d times, want 2", len(clk.rec))
	}
	for i, d := range clk.rec {
		if d != time.Second {
			t.Fatalf("sleep %d = %v, want exactly the server's 1s hint", i, d)
		}
	}

	// Without the header the exponential schedule is back.
	calls.Store(0)
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"results":[{"name":"errors","version":1,"classification":true,"class":0}]}`))
	}))
	defer srv2.Close()
	c2, err := New(srv2.URL, Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	clk2 := newFakeClock()
	clk2.install(c2)
	if _, err := c2.Predict(context.Background(), "errors", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(clk2.rec) != len(want) {
		t.Fatalf("client slept %d times, want %d", len(clk2.rec), len(want))
	}
	for i, d := range clk2.rec {
		if d != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, d, want[i])
		}
	}
}

// TestBreakerWaitsForFullWindow: the breaker trips only on a full
// window of evidence, so fewer failures than the window — at the policy
// every client runs — never short-circuit, and every attempt reaches
// the wire. The failover tests rely on this to keep the breaker out of
// their way.
func TestBreakerWaitsForFullWindow(t *testing.T) {
	fs := &failingServer{status: http.StatusInternalServerError}
	srv := httptest.NewServer(fs.handler())
	defer srv.Close()
	c, err := New(srv.URL, Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	instantSleep(c)
	under := c.policy.window - 1
	for i := 0; i < under; i++ {
		if _, err := c.Predict(context.Background(), "errors", "SELECT 1"); errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("breaker short-circuited after %d failures, window %d", i, c.policy.window)
		}
	}
	if got := fs.calls.Load(); got != int64(under) {
		t.Fatalf("server saw %d calls, want %d", got, under)
	}
	if br := c.Breakers(); len(br) != 1 || br[0].State != BreakerClosed || br[0].Failures != uint64(under) {
		t.Fatalf("Breakers() = %+v, want one closed breaker with %d failures", br, under)
	}
}
