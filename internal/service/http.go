package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/serve"
)

// NewHandler exposes a Service over HTTP/JSON:
//
//	POST /v1/predict  {"model","statement"|"statements",["deadline_ms"]}
//	GET  /v1/models
//	POST /v1/deploy   {"model",["version"]}
//	GET  /v1/stats?model=NAME
//	GET  /v1/healthz
//	POST /v1/admin/gc
//	POST /v1/ingest   {"model","statement",["class"],["value"]}
//
// Every route is one entry of the op table (control.go): the handler
// only maps path and method onto the Op, hands it the body, and
// encodes the reply. Request contexts propagate end to end: a client
// disconnect or a deadline_ms expiry cancels the prediction while it
// waits for a replica, and admission-control rejections surface as 429s
// attributed to the rejecting model's stats. /v1/healthz is the
// readiness probe: 503 until the store warm-boot finishes (and after
// Close), 200 once the service is ready to take traffic.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	for op := Op(0); op < numOps; op++ {
		mux.HandleFunc(ops[op].path, func(w http.ResponseWriter, r *http.Request) { serveOp(s, op, w, r) })
	}
	return mux
}

// MaxBodyBytes caps a request body on either transport: HTTP bodies
// beyond it are refused with 413, and it is the wire protocol's frame
// payload cap (wire.DefaultMaxPayload).
const MaxBodyBytes = 16 << 20

// serveOp answers one HTTP request for op.
func serveOp(s *Service, op Op, w http.ResponseWriter, r *http.Request) {
	method, _ := op.Route()
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, errors.New(method+" required"))
		return
	}
	var body []byte
	if method == http.MethodGet {
		// A GET carries its input as query parameters; ops take JSON.
		query := make(map[string]string)
		for k, v := range r.URL.Query() {
			if len(v) > 1 {
				writeError(w, http.StatusBadRequest, errors.New("query parameter "+k+" is repeated"))
				return
			}
			query[k] = v[0]
		}
		body, _ = json.Marshal(query) // a string map always encodes
	} else {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, err)
			return
		}
	}
	reply, err := s.Control(r.Context(), op, body)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, reply)
	case reply != nil: // healthz: the document explains the failure
		writeJSON(w, StatusFor(err), reply)
	default:
		writeError(w, StatusFor(err), err)
	}
}

// RetryAfter is the backoff hint, in seconds, sent with every 429 and
// 503 (0 for any other status) — over HTTP as a Retry-After header,
// over the wire protocol in the error frame — the server-provided
// pacing the typed client honors in place of its own exponential
// guess.
func RetryAfter(status int) int {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return 1
	}
	return 0
}

type errorResponse struct {
	Error string `json:"error"`
}

// StatusFor maps service and context errors onto HTTP statuses. The
// binary wire transport ships exactly these codes in its error frames,
// so the typed-error ↔ sentinel mapping is transport-independent.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNoIngest):
		// Configuration, not transience: retrying the same node cannot
		// help, and 4xx keeps the client from burning its retry budget.
		return http.StatusBadRequest
	case errors.Is(err, ErrNotDeployed):
		return http.StatusConflict
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, ErrClosed), errors.Is(err, serve.ErrClosed), errors.Is(err, errNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrPanicked):
		// A poisoned input took down one inference, not the pool: the
		// request fails, the node stays healthy.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Overload and unavailability responses carry the server's pacing
	// hint; the typed client honors it over its own backoff schedule.
	if secs := RetryAfter(status); secs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
