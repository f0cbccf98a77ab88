package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
)

// newTestServer spins up a Service with one deployed classification
// model and one deployed regression model behind the HTTP handler,
// with an ingest log for feedback.
func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	w, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s := New(Options{Serve: serve.Options{Replicas: 1}, Ingest: w})
	if _, err := s.Swap("errors", trainCCNN(t, core.ErrorClassification)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap("rows", trainCCNN(t, core.AnswerSizePrediction)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPPredictRoundTrip checks /v1/predict for classification and
// regression, single and batch, against direct service calls.
// TestOpValuesPinned: an Op's value is the wire control frame's op
// byte, so renumbering one breaks every peer built before the change.
func TestOpValuesPinned(t *testing.T) {
	for op, want := range map[Op]uint8{
		OpModels: 0, OpDeploy: 1, OpStats: 2, OpHealthz: 3, OpGC: 4, OpIngest: 5, OpPredict: 6,
	} {
		if uint8(op) != want {
			method, path := op.Route()
			t.Errorf("%s %s: op %d, want %d", method, path, op, want)
		}
	}
	if numOps != 7 {
		t.Errorf("%d ops, want 7: pin the new op's value here", numOps)
	}
}

func TestHTTPPredictRoundTrip(t *testing.T) {
	s, srv := newTestServer(t)
	stmts := testStatements(5)

	resp := postJSON(t, srv.URL+"/v1/predict", PredictRequest{Model: "errors", Statement: stmts[0], DeadlineMs: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got := decodeJSON[PredictResponse](t, resp)
	if len(got.Results) != 1 {
		t.Fatalf("results = %d", len(got.Results))
	}
	pr := got.Results[0]
	want, err := s.Predict(t.Context(), "errors", stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	if pr.Class != want.Class || pr.Version != want.Version || !pr.Classification {
		t.Fatalf("prediction = %+v, want %+v", pr, want)
	}
	for c := range want.Probs {
		if pr.Probs[c] != want.Probs[c] {
			t.Fatal("probs drifted through JSON round trip")
		}
	}

	// Batch, regression.
	resp = postJSON(t, srv.URL+"/v1/predict", PredictRequest{Model: "rows", Statements: stmts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	batch := decodeJSON[PredictResponse](t, resp)
	if len(batch.Results) != len(stmts) {
		t.Fatalf("batch results = %d", len(batch.Results))
	}
	for i, stmt := range stmts {
		want, err := s.Predict(t.Context(), "rows", stmt)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Results[i].Raw != want.Raw || batch.Results[i].Classification {
			t.Fatalf("batch[%d] = %+v", i, batch.Results[i])
		}
	}
}

// TestHTTPPredictLongDeadline: a deadline_ms too large for a Duration
// is the longest deadline the wire frame carries, not an overflow into
// an already-expired one (an immediate 504).
func TestHTTPPredictLongDeadline(t *testing.T) {
	_, srv := newTestServer(t)
	stmt := testStatements(1)[0]
	for _, tc := range []struct {
		name string
		ms   int
	}{
		{"u32 max", math.MaxUint32},
		{"first Duration overflow", 9_223_372_036_855},
		{"int max", math.MaxInt},
	} {
		resp := postJSON(t, srv.URL+"/v1/predict", PredictRequest{Model: "errors", Statement: stmt, DeadlineMs: tc.ms})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: deadline_ms %d: status = %d, want 200", tc.name, tc.ms, resp.StatusCode)
		}
	}
}

// remainingCtx carries a deadline d after the moment Deadline is
// called, so the remainder DeadlineMs computes is d less a few
// nanoseconds however slow the machine.
type remainingCtx struct {
	context.Context
	d time.Duration
}

func (c remainingCtx) Deadline() (time.Time, bool) { return time.Now().Add(c.d), true }

// TestDeadlineMsRoundsUpAndClamps: the shipped deadline is the caller's
// remainder rounded up to whole milliseconds — never shorter than the
// caller's, so a context with under 1ms left is sent, not failed
// locally — and a remainder past the u32 field is clamped, not wrapped
// into a tiny server-side deadline.
func TestDeadlineMsRoundsUpAndClamps(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    time.Duration
		want uint32
	}{
		{"sub-millisecond remainder", 500 * time.Microsecond, 1},
		{"fractional remainder", 1500 * time.Microsecond, 2},
		{"2^32+5 ms", (1<<32 + 5) * time.Millisecond, math.MaxUint32},
	} {
		got, err := DeadlineMs(remainingCtx{context.Background(), tc.d})
		if err != nil || got != tc.want {
			t.Errorf("%s: DeadlineMs = %d, %v; want %d, nil", tc.name, got, err, tc.want)
		}
	}
}

// TestHTTPModelsAndStats checks the listing and metrics endpoints.
func TestHTTPModelsAndStats(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	models := decodeJSON[[]ModelInfo](t, resp)
	if len(models) != 2 || models[0].Name != "errors" || models[1].Name != "rows" {
		t.Fatalf("models = %+v", models)
	}
	if models[0].LiveVersion != 1 || models[0].Task != "error-classification" {
		t.Fatalf("models[0] = %+v", models[0])
	}

	// Generate one request so stats are non-empty, then fetch them.
	postJSON(t, srv.URL+"/v1/predict", PredictRequest{Model: "errors", Statement: testStatements(1)[0]}).Body.Close()
	resp, err = http.Get(srv.URL + "/v1/stats?model=errors")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[StatsSnapshot](t, resp)
	if st.Stats.Completed == 0 || st.Info.Name != "errors" {
		t.Fatalf("stats = %+v", st)
	}
	if resp, _ := http.Get(srv.URL + "/v1/stats"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stats without model = %d", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/v1/stats?model=ghost"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats ghost = %d", resp.StatusCode)
	}
}

// TestHTTPDeploy checks /v1/deploy redeploys a version and bumps the
// prediction provenance.
func TestHTTPDeploy(t *testing.T) {
	s, srv := newTestServer(t)
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := core.FineTune(m, testSplit().Valid, core.TinyConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("errors", m); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+"/v1/deploy", DeployRequest{Model: "errors", Version: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	info := decodeJSON[ModelInfo](t, resp)
	if info.Version != 2 || !info.Live {
		t.Fatalf("deploy info = %+v", info)
	}
	pr := postJSON(t, srv.URL+"/v1/predict", PredictRequest{Model: "errors", Statement: testStatements(1)[0]})
	if got := decodeJSON[PredictResponse](t, pr); got.Results[0].Version != 2 {
		t.Fatalf("post-deploy version = %d", got.Results[0].Version)
	}
}

// TestHTTPHealthz checks the readiness probe lifecycle: 503 while a
// store-backed service has not warm-booted, 200 once it has, 503 again
// after Close.
func TestHTTPHealthz(t *testing.T) {
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: NewMemStore()})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	get := func() (int, Health) {
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, decodeJSON[Health](t, resp)
	}
	if code, body := get(); code != http.StatusServiceUnavailable || body.Status != "warming up" {
		t.Fatalf("pre-boot healthz = %d %+v", code, body)
	}
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("post-boot healthz = %d %+v", code, body)
	}
	s.Close()
	if code, _ := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close healthz = %d", code)
	}
	if resp, _ := http.Post(srv.URL+"/v1/healthz", "application/json", strings.NewReader("{}")); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("healthz POST = %d", resp.StatusCode)
	}
}

// TestHTTPDeployQuota checks that /v1/deploy takes no pool overrides:
// a deploy body carrying one is refused as the caller's mistake. Every
// pool runs the service-wide template.
func TestHTTPDeployQuota(t *testing.T) {
	_, srv := newTestServer(t)
	bad, err := http.Post(srv.URL+"/v1/deploy", "application/json",
		strings.NewReader(`{"model":"errors","admission":"maybe"}`))
	if err != nil {
		t.Fatal(err)
	}
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("deploy with an override status = %d", bad.StatusCode)
	}
	bad.Body.Close()
}

// zeros is an endless stream of '0' bytes (an oversized request body).
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestHTTPErrorMapping checks error → status mapping: bad JSON, bad
// methods, unknown models, missing fields.
func TestHTTPErrorMapping(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"predict bad json", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"predict missing fields", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(`{"model":"errors"}`))
		}, http.StatusBadRequest},
		{"predict statement and statements", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/predict", "application/json",
				strings.NewReader(`{"model":"errors","statement":"SELECT 1","statements":["SELECT 2"]}`))
		}, http.StatusBadRequest},
		{"predict body over the cap", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/predict", "application/json",
				io.MultiReader(strings.NewReader(`{"model":"errors","statement":"`), io.LimitReader(zeros{}, MaxBodyBytes)))
		}, http.StatusRequestEntityTooLarge},
		{"predict unknown model", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/predict", "application/json",
				strings.NewReader(`{"model":"ghost","statement":"SELECT 1"}`))
		}, http.StatusNotFound},
		{"predict wrong method", func() (*http.Response, error) {
			return http.Get(srv.URL + "/v1/predict")
		}, http.StatusMethodNotAllowed},
		{"models wrong method", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/models", "application/json", strings.NewReader("{}"))
		}, http.StatusMethodNotAllowed},
		{"deploy unknown model", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/deploy", "application/json",
				strings.NewReader(`{"model":"ghost"}`))
		}, http.StatusNotFound},
		{"stats repeated query parameter", func() (*http.Response, error) {
			return http.Get(srv.URL + "/v1/stats?model=errors&model=ghost")
		}, http.StatusBadRequest},
		{"ingest class out of range", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/ingest", "application/json",
				strings.NewReader(`{"model":"errors","statement":"SELECT 1","class":7}`))
		}, http.StatusBadRequest},
		{"ingest negative class", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/ingest", "application/json",
				strings.NewReader(`{"model":"errors","statement":"SELECT 1","class":-1}`))
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		e := decodeJSON[errorResponse](t, resp)
		if e.Error == "" {
			t.Fatalf("%s: empty error body", tc.name)
		}
	}
}
