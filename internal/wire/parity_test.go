package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/service"
)

// TestControlPlaneTransportParity pins what the shared op table buys:
// for every control-plane op and every way a request can go — served,
// malformed, incomplete, unknown model, cold model, closed service —
// the HTTP handler and the wire server answer with the same status,
// the same Retry-After hint, and byte-identical JSON: the reply
// document on success, the error text on failure.
func TestControlPlaneTransportParity(t *testing.T) {
	cases := []struct {
		name   string
		op     service.Op
		body   string // JSON request ("" = none); a GET op's fields travel as its query over HTTP
		closed bool   // exchange against a closed service
		status int
	}{
		{"models/ok", service.OpModels, "", false, 200},
		{"models/closed", service.OpModels, "", true, 200},

		{"deploy/ok", service.OpDeploy, `{"model":"errors"}`, false, 200},
		{"deploy/bad json", service.OpDeploy, `{`, false, 400},
		{"deploy/missing model", service.OpDeploy, `{}`, false, 400},
		{"deploy/bad options", service.OpDeploy, `{"model":"errors","admission":"maybe"}`, false, 400},
		{"deploy/unknown field", service.OpDeploy, `{"model":"errors","admision":"reject"}`, false, 400},
		{"deploy/unknown model", service.OpDeploy, `{"model":"ghost"}`, false, 404},
		{"deploy/closed", service.OpDeploy, `{"model":"errors"}`, true, 503},

		// A GET has no body to malform, so stats has no bad-JSON row.
		{"stats/ok", service.OpStats, `{"model":"errors"}`, false, 200},
		{"stats/missing model", service.OpStats, `{}`, false, 400},
		{"stats/unknown model", service.OpStats, `{"model":"ghost"}`, false, 404},
		{"stats/not deployed", service.OpStats, `{"model":"cold"}`, false, 409},
		{"stats/closed", service.OpStats, `{"model":"errors"}`, true, 503},

		{"healthz/ok", service.OpHealthz, "", false, 200},
		{"healthz/closed", service.OpHealthz, "", true, 503},

		{"gc/ok", service.OpGC, "", false, 200},
		{"gc/closed", service.OpGC, "", true, 503},

		{"ingest/ok", service.OpIngest, `{"model":"errors","statement":"SELECT 1","class":1}`, false, 200},
		{"ingest/bad json", service.OpIngest, `{"model":`, false, 400},
		{"ingest/missing statement", service.OpIngest, `{"model":"errors"}`, false, 400},
		{"ingest/unknown model", service.OpIngest, `{"model":"ghost","statement":"SELECT 1"}`, false, 404},
		{"ingest/closed", service.OpIngest, `{"model":"errors","statement":"SELECT 1"}`, true, 503},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := parityService(t)
			web := httptest.NewServer(service.NewHandler(svc))
			defer web.Close()
			_, addr := startServer(t, svc, "unix", ServerOptions{})
			cl := testClient(t, "unix", addr, ClientOptions{})
			if tc.closed {
				svc.Close()
			}

			httpStatus, httpRetry, httpBody := httpExchange(t, web.URL, tc.op, tc.body)
			wireStatus, wireRetry, wireBody := wireExchange(t, cl, tc.op, tc.body)
			if httpStatus != tc.status || wireStatus != tc.status {
				t.Fatalf("status http=%d wire=%d, want %d (http body %s)", httpStatus, wireStatus, tc.status, httpBody)
			}
			if httpRetry != wireRetry {
				t.Fatalf("Retry-After http=%d wire=%d", httpRetry, wireRetry)
			}
			switch tc.name {
			case "stats/ok":
				// The clock runs between the two exchanges.
				httpBody, wireBody = stripClock(t, httpBody), stripClock(t, wireBody)
			case "healthz/closed":
				// The one cell where the transports differ by design: HTTP
				// sends the health document as the 503's body, the wire
				// error frame carries only the error text.
				var h service.Health
				if err := json.Unmarshal(httpBody, &h); err != nil || h.Status != "warming up" {
					t.Fatalf("http 503 body = %s", httpBody)
				}
				httpBody = errorDoc(t, "service warming up")
			}
			if !bytes.Equal(httpBody, wireBody) {
				t.Fatalf("bodies differ\nhttp: %s\nwire: %s", httpBody, wireBody)
			}
		})
	}
}

// parityService has one deployed model, one registered but never
// deployed, and an ingest log.
func parityService(t *testing.T) *service.Service {
	t.Helper()
	wal, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}, Ingest: wal})
	t.Cleanup(svc.Close)
	if _, err := svc.Swap("errors", classModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("cold", classModel()); err != nil {
		t.Fatal(err)
	}
	return svc
}

// httpExchange performs op over the HTTP handler, returning the
// status, the Retry-After seconds (0 = absent), and the raw body.
func httpExchange(t *testing.T, base string, op service.Op, body string) (int, int, []byte) {
	t.Helper()
	method, path := op.Route()
	var rd io.Reader
	if method == http.MethodGet && body != "" {
		var fields map[string]string
		if err := json.Unmarshal([]byte(body), &fields); err != nil {
			t.Fatal(err)
		}
		query := url.Values{}
		for k, v := range fields {
			query.Set(k, v)
		}
		path += "?" + query.Encode()
	} else if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return resp.StatusCode, retry, data
}

// wireExchange performs op over the wire protocol, rendering the reply
// frame the way HTTP would have sent it: a MsgJSON payload is a 200
// body, an error frame is its status plus the {"error": ...} document.
func wireExchange(t *testing.T, cl *Client, op service.Op, body string) (int, int, []byte) {
	t.Helper()
	var payload []byte
	if body != "" {
		payload = []byte(body)
	}
	js, err := cl.Call(context.Background(), op, payload)
	if err == nil {
		return http.StatusOK, 0, append(js, '\n') // json.Encoder terminates documents
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("wire transport failure: %v", err)
	}
	return se.Status, se.RetryAfter, errorDoc(t, se.Message)
}

// errorDoc is the HTTP handler's error body for msg.
func errorDoc(t *testing.T, msg string) []byte {
	t.Helper()
	doc, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		t.Fatal(err)
	}
	return append(doc, '\n')
}

// stripClock zeroes a stats document's wall-clock-derived fields.
func stripClock(t *testing.T, doc []byte) []byte {
	t.Helper()
	var snap service.StatsSnapshot
	if err := json.Unmarshal(doc, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Stats.Uptime, snap.Stats.Throughput = 0, 0
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
