package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/workload"
)

// testSplit builds one small fixed workload shared by the tests.
var testSplit = sync.OnceValue(func() workload.Split {
	w := synth.NewSDSS(synth.SDSSConfig{Sessions: 300, HitsPerSessionMax: 2, Seed: 21}).Generate()
	return workload.RandomSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(5)))
})

var testModel = sync.OnceValue(func() *core.Model {
	m, err := core.Train("ccnn", core.ErrorClassification, testSplit().Train, core.TinyConfig())
	if err != nil {
		panic(err)
	}
	return m
})

// newServedService deploys the shared model behind a real handler and
// returns a client on it.
func newServedService(t *testing.T, opts Options) (*service.Service, *Client) {
	t.Helper()
	svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}})
	if _, err := svc.Swap("errors", testModel()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() { srv.Close(); svc.Close() })
	c, err := New(srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return svc, c
}

// instantSleep removes real backoff waits from a test client.
func instantSleep(c *Client) {
	c.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
}

func testStatements(n int) []string {
	items := testSplit().Test
	if len(items) > n {
		items = items[:n]
	}
	stmts := make([]string, len(items))
	for i, item := range items {
		stmts[i] = item.Statement
	}
	return stmts
}

// TestPredictRoundTrip checks typed predictions match direct service
// calls bit-for-bit, single and batch.
func TestPredictRoundTrip(t *testing.T) {
	svc, c := newServedService(t, Options{Timeout: 5 * time.Second})
	stmts := testStatements(8)
	ctx := context.Background()

	pr, err := c.Predict(ctx, "errors", stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Predict(ctx, "errors", stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	if pr.Class != want.Class || pr.Version != want.Version || !pr.Classification {
		t.Fatalf("Predict = %+v, want %+v", pr, want)
	}
	for i := range want.Probs {
		if pr.Probs[i] != want.Probs[i] {
			t.Fatal("probs drifted through the client")
		}
	}

	batch, err := c.PredictBatch(ctx, "errors", stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(stmts) {
		t.Fatalf("batch = %d results", len(batch))
	}
	for i, stmt := range stmts {
		want, err := svc.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Class != want.Class {
			t.Fatalf("batch[%d].Class = %d, want %d", i, batch[i].Class, want.Class)
		}
	}

	if _, err := c.Predict(ctx, "ghost", stmts[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost err = %v, want ErrNotFound", err)
	}
}

// TestModelsDeployStats checks the registry endpoints through the
// typed client.
func TestModelsDeployStats(t *testing.T) {
	_, c := newServedService(t, Options{})
	ctx := context.Background()

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "errors" || models[0].LiveVersion != 1 {
		t.Fatalf("Models = %+v", models)
	}

	info, err := c.Deploy(ctx, "errors", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Live {
		t.Fatalf("Deploy info = %+v", info)
	}

	if _, err := c.Predict(ctx, "errors", testStatements(1)[0]); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx, "errors")
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.Completed == 0 || st.Info.LiveVersion != info.LiveVersion {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestHealthz checks the readiness probe against a warming service.
func TestHealthz(t *testing.T) {
	svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}, Store: service.NewMemStore()})
	defer svc.Close()
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	c, err := New(srv.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	instantSleep(c)
	ctx := context.Background()

	if err := c.Healthz(ctx); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("warming Healthz err = %v, want ErrUnavailable", err)
	}
	if _, err := svc.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("ready Healthz err = %v", err)
	}
	if err := c.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// WaitReady must give up when the context does.
	svc.Close()
	shortCtx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := c.WaitReady(shortCtx); err == nil {
		t.Fatal("WaitReady returned nil against a closed service")
	}
}

// flakyHandler fails the first n requests with status, then delegates.
func flakyHandler(n int, status int, next http.Handler) (http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			w.WriteHeader(status)
			w.Write([]byte(`{"error":"synthetic failure"}`))
			return
		}
		next.ServeHTTP(w, r)
	}), &calls
}

// TestRetryOn5xxAnd429 checks the bounded-retry contract: transient
// 503s and 429s are retried up to the budget and the call succeeds.
func TestRetryOn5xxAnd429(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests, http.StatusInternalServerError} {
		svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}})
		if _, err := svc.Swap("errors", testModel()); err != nil {
			t.Fatal(err)
		}
		h, calls := flakyHandler(2, status, service.NewHandler(svc))
		srv := httptest.NewServer(h)
		c, err := New(srv.URL, Options{Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		instantSleep(c)
		if _, err := c.Predict(context.Background(), "errors", testStatements(1)[0]); err != nil {
			t.Fatalf("status %d: predict after retries: %v", status, err)
		}
		if got := calls.Load(); got != 3 {
			t.Fatalf("status %d: %d attempts, want 3", status, got)
		}
		srv.Close()
		svc.Close()
		c.Close()
	}
}

// TestRetryBudgetExhausted checks a persistent failure surfaces after
// exactly budget+1 attempts with a typed, matchable error.
func TestRetryBudgetExhausted(t *testing.T) {
	h, calls := flakyHandler(1<<30, http.StatusServiceUnavailable, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(srv.URL, Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	instantSleep(c)
	_, err = c.Predict(context.Background(), "errors", "SELECT 1")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want *APIError 503", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("%d attempts, want 4", got)
	}
}

// TestNoRetryOnClientError checks 4xx (other than 429) fails fast:
// retrying a caller mistake is pure waste.
func TestNoRetryOnClientError(t *testing.T) {
	h, calls := flakyHandler(1<<30, http.StatusNotFound, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(srv.URL, Options{Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	instantSleep(c)
	if _, err := c.Predict(context.Background(), "ghost", "SELECT 1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d attempts, want 1 (no retries on 404)", got)
	}
}

// TestDeployNotRetried checks deploys never burn the retry budget —
// the client must not re-issue state-changing calls on its own.
func TestDeployNotRetried(t *testing.T) {
	h, calls := flakyHandler(1<<30, http.StatusServiceUnavailable, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(srv.URL, Options{Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	instantSleep(c)
	if _, err := c.Deploy(context.Background(), "errors", 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d attempts, want 1 (deploys are not retried)", got)
	}
}

// TestPerRequestTimeout checks the client-side deadline fires and the
// caller's context stays usable.
func TestPerRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server arms client-disconnect
		// detection, then stall until the test releases us.
		io.Copy(io.Discard, r.Body)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(block) // unblock the handler before srv.Close waits on it
	c, err := New(srv.URL, Options{Timeout: 30 * time.Millisecond, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Predict(context.Background(), "errors", "SELECT 1")
	if err == nil {
		t.Fatal("predict against a hung server returned nil")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %s", elapsed)
	}
}

// TestHTTPDeadlineMsIsAttemptRemainder checks the HTTP transport ships
// the attempt's remaining time as deadline_ms, like the wire transport:
// the caller's own deadline when no Timeout is set, and the caller's
// when it is shorter than Timeout.
func TestHTTPDeadlineMsIsAttemptRemainder(t *testing.T) {
	var shipped atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		shipped.Store(int64(req.DeadlineMs))
		json.NewEncoder(w).Encode(service.PredictResponse{
			Results: make([]Prediction, max(1, len(req.Statements))),
		})
	}))
	defer srv.Close()
	for _, tc := range []struct {
		name            string
		timeout, caller time.Duration
	}{
		{"no Timeout", 0, 250 * time.Millisecond},
		{"Timeout past the caller's deadline", 10 * time.Second, 50 * time.Millisecond},
	} {
		c, err := New(srv.URL, Options{Timeout: tc.timeout, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), tc.caller)
		check := func(call string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, call, err)
			}
			if ms := shipped.Load(); ms <= 0 || ms > tc.caller.Milliseconds() {
				t.Errorf("%s: %s shipped deadline_ms %d, want in (0, %d]", tc.name, call, ms, tc.caller.Milliseconds())
			}
		}
		_, err = c.Predict(ctx, "errors", "SELECT 1")
		check("Predict", err)
		_, err = c.PredictBatch(ctx, "errors", []string{"SELECT 1", "SELECT 2"})
		check("PredictBatch", err)
		cancel()
		c.Close()
	}
}

// TestBadBaseURL checks constructor validation.
func TestBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "ftp://x", "://", "localhost:8080"} {
		if _, err := New(bad, Options{}); err == nil {
			t.Errorf("New(%q) accepted an invalid base URL", bad)
		}
	}
}

// TestConnectionReuse checks sequential calls ride one pooled
// transport connection (the connection-reuse contract).
func TestConnectionReuse(t *testing.T) {
	svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}})
	defer svc.Close()
	if _, err := svc.Swap("errors", testModel()); err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(service.NewHandler(svc))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c, err := New(srv.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	stmt := testStatements(1)[0]
	for i := 0; i < 8; i++ {
		if _, err := c.Predict(ctx, "errors", stmt); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("8 sequential predictions opened %d connections, want 1", got)
	}
}
