package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"time"
)

// This file is the control contract: for every operation a transport
// exposes besides the binary predict frames, which fields a request
// must carry, how they are validated, which Service call runs, and
// what shape answers. It lives here once. The HTTP handler maps
// path+method onto an Op, a wire control frame carries the Op itself,
// and both hand the JSON body to Control and encode whatever comes
// back — so the two transports cannot drift, and the typed client
// builds its requests from the same exported shapes.

// Op identifies one control-plane operation.
type Op uint8

// An Op's value is the op byte of a wire control frame, so peers built
// at different commits must agree on it: a new op is appended before
// numOps, and existing ones are never reordered or removed.
const (
	// OpModels lists registered models: no input, []ModelInfo out.
	OpModels Op = iota
	// OpDeploy makes a version live: DeployRequest in, ModelInfo out.
	OpDeploy
	// OpStats reports one model's metrics: StatsRequest in,
	// StatsSnapshot out.
	OpStats
	// OpHealthz probes readiness: no input, Health out. While the
	// service is not ready the Health document comes back alongside a
	// 503-mapped error.
	OpHealthz
	// OpGC runs a retention pass now: no input, GCResponse out.
	OpGC
	// OpIngest logs ground truth for a served statement: IngestRequest
	// in, IngestResponse out.
	OpIngest
	// OpPredict is the JSON predict body: PredictRequest in,
	// PredictResponse out. The wire transport's predict frame is the
	// same request in a binary, allocation-free format.
	OpPredict
	numOps
)

// ops is the op table: each operation's HTTP route and implementation.
var ops = [numOps]struct {
	method, path string
	run          func(s *Service, ctx context.Context, body []byte) (any, error)
}{
	OpModels:  {http.MethodGet, "/v1/models", (*Service).opModels},
	OpDeploy:  {http.MethodPost, "/v1/deploy", (*Service).opDeploy},
	OpStats:   {http.MethodGet, "/v1/stats", (*Service).opStats},
	OpHealthz: {http.MethodGet, "/v1/healthz", (*Service).opHealthz},
	OpGC:      {http.MethodPost, "/v1/admin/gc", (*Service).opGC},
	OpIngest:  {http.MethodPost, "/v1/ingest", (*Service).opIngest},
	OpPredict: {http.MethodPost, "/v1/predict", (*Service).opPredict},
}

// Route returns op's HTTP method and path.
func (op Op) Route() (method, path string) {
	return ops[op].method, ops[op].path
}

// Control runs one control-plane operation: the request's JSON body in
// (ignored by the operations that take no input), the reply value to
// encode or a typed error out. StatusFor maps the error onto a status;
// malformed and incomplete requests match ErrBadRequest.
func (s *Service) Control(ctx context.Context, op Op, body []byte) (any, error) {
	if op >= numOps {
		return nil, badRequest("unknown control operation")
	}
	return ops[op].run(s, ctx, body)
}

// ErrBadRequest matches (errors.Is) every error Control returns for a
// request that is malformed, incomplete, or carries invalid options.
// Transports map it onto 400; retrying the same request cannot help.
var ErrBadRequest = errors.New("service: bad request")

// badRequestError marks err as the caller's mistake while keeping its
// message as the whole error text (it is what the client is shown).
type badRequestError struct{ err error }

func (e badRequestError) Error() string        { return e.err.Error() }
func (e badRequestError) Is(target error) bool { return target == ErrBadRequest }

func badRequest(msg string) error { return badRequestError{errors.New(msg)} }

// decode parses a request body into req. A field req does not have is
// the caller's mistake, not something to ignore, and so is anything
// after the one JSON value.
func decode(body []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return badRequestError{err}
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("trailing data after the request body")
	}
	return nil
}

// reply adapts a typed Service result to an op's return: the value on
// success, nothing but the error on failure.
func reply[T any](v T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// errNotReady accompanies the Health document while the service is
// warming up or closed.
var errNotReady = errors.New("service warming up")

// PredictRequest is the POST /v1/predict body. Exactly one of
// Statement or Statements must be set.
type PredictRequest struct {
	Model      string   `json:"model"`
	Statement  string   `json:"statement,omitempty"`
	Statements []string `json:"statements,omitempty"`
	// DeadlineMs bounds the request server-side (on top of whatever
	// deadline the client connection already carries). Values past the
	// wire frame's u32 range (~49.7 days) count as that range's largest.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// DeadlineMs is the deadline_ms a predict request ships for ctx, on
// either transport: the time left until ctx's deadline (0 = none). An
// already-expired context fails before any I/O. The remainder rounds
// up, so the server's deadline is never shorter than the caller's
// (under 1ms left still ships 1ms), and one past the wire frame's u32
// range (~49.7 days) ships the largest value instead of wrapping.
func DeadlineMs(ctx context.Context) (uint32, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	d := time.Until(dl)
	if d <= 0 {
		return 0, context.DeadlineExceeded
	}
	ms := d / time.Millisecond
	if d%time.Millisecond != 0 {
		ms++
	}
	return uint32(min(ms, math.MaxUint32)), nil
}

// WithDeadlineMs bounds parent by a received deadline_ms. A value <= 0
// means none: parent comes back with a no-op cancel and no timer, the
// allocation-free path. Values past the u32 range count as its largest,
// clamped before they become a Duration, which would overflow into the
// past above ~292 years.
func WithDeadlineMs(parent context.Context, ms int64) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return parent, noCancel
	}
	return context.WithTimeout(parent, time.Duration(min(ms, math.MaxUint32))*time.Millisecond)
}

func noCancel() {}

// PredictResponse is the POST /v1/predict reply: one prediction per
// statement, in input order.
type PredictResponse struct {
	Results []Prediction `json:"results"`
}

// DeployRequest is the OpDeploy body, on either transport: the model
// and an optional version (0 = latest).
type DeployRequest struct {
	Model   string `json:"model"`
	Version int    `json:"version,omitempty"`
}

// StatsRequest names the model whose metrics are wanted: the OpStats
// body, which travels as the query of GET /v1/stats.
type StatsRequest struct {
	Model string `json:"model"`
}

// GCResponse is the OpGC reply, on either transport.
type GCResponse struct {
	Results []GCResult `json:"results"`
}

// IngestRequest is the OpIngest body, on either transport: a served
// statement and its observed ground-truth outcome (class for
// classification tasks, value in raw units for regression tasks).
type IngestRequest struct {
	Model     string  `json:"model"`
	Statement string  `json:"statement"`
	Class     int     `json:"class,omitempty"`
	Value     float64 `json:"value,omitempty"`
}

// IngestResponse is the feedback acknowledgment shared by both
// transports.
type IngestResponse struct {
	OK bool `json:"ok"`
}

func (s *Service) opModels(context.Context, []byte) (any, error) {
	return s.Models(), nil
}

func (s *Service) opDeploy(_ context.Context, body []byte) (any, error) {
	var req DeployRequest
	if err := decode(body, &req); err != nil {
		return nil, err
	}
	if req.Model == "" {
		return nil, badRequest("model required")
	}
	return reply(s.Deploy(req.Model, req.Version))
}

func (s *Service) opStats(_ context.Context, body []byte) (any, error) {
	var req StatsRequest
	if err := decode(body, &req); err != nil {
		return nil, err
	}
	if req.Model == "" {
		return nil, badRequest("model required")
	}
	return reply(s.StatsSnapshot(req.Model))
}

// opHealthz serves the shared Health shape. Once a warm boot has run,
// its Boot field carries the report — loaded/quarantined/skipped
// counts and the incident log — so an orchestrator (or a human with
// curl) can tell a clean boot from a degraded one that quarantined
// artifacts.
func (s *Service) opHealthz(context.Context, []byte) (any, error) {
	h, ready := s.health()
	if !ready {
		return h, errNotReady
	}
	return h, nil
}

func (s *Service) opGC(context.Context, []byte) (any, error) {
	results, err := s.GC()
	return reply(GCResponse{Results: results}, err)
}

// opIngest accepts ground-truth feedback for a served statement (the
// transport face of Service.Observe): the outcome is appended to the
// node's ingest log, where the online pipeline's trainers pick it up.
func (s *Service) opIngest(_ context.Context, body []byte) (any, error) {
	var req IngestRequest
	if err := decode(body, &req); err != nil {
		return nil, err
	}
	if req.Model == "" || req.Statement == "" {
		return nil, badRequest("model and statement required")
	}
	return reply(IngestResponse{OK: true}, s.Observe(req.Model, req.Statement, req.Class, req.Value))
}

func (s *Service) opPredict(ctx context.Context, body []byte) (any, error) {
	var req PredictRequest
	if err := decode(body, &req); err != nil {
		return nil, err
	}
	if req.Model == "" || (req.Statement == "" && len(req.Statements) == 0) {
		return nil, badRequest("model and statement (or statements) required")
	}
	if req.Statement != "" && len(req.Statements) != 0 {
		return nil, badRequest("statement and statements are mutually exclusive")
	}
	ctx, cancel := WithDeadlineMs(ctx, int64(req.DeadlineMs))
	defer cancel()
	stmts := req.Statements
	if len(stmts) == 0 {
		stmts = []string{req.Statement}
	}
	// One batch call: the whole replica pool works the statements
	// concurrently rather than one at a time.
	results, err := s.PredictBatch(ctx, req.Model, stmts)
	return reply(PredictResponse{Results: results}, err)
}
