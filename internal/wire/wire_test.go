package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/workload"
)

// testSplit builds one small fixed workload shared by the tests.
var testSplit = sync.OnceValue(func() workload.Split {
	w := synth.NewSDSS(synth.SDSSConfig{Sessions: 350, HitsPerSessionMax: 2, Seed: 9}).Generate()
	return workload.RandomSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(7)))
})

var classModel = sync.OnceValue(func() *core.Model {
	m, err := core.Train("ccnn", core.ErrorClassification, testSplit().Train, core.TinyConfig())
	if err != nil {
		panic(err)
	}
	return m
})

var regModel = sync.OnceValue(func() *core.Model {
	m, err := core.Train("ccnn", core.CPUTimePrediction, testSplit().Train, core.TinyConfig())
	if err != nil {
		panic(err)
	}
	return m
})

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

// testService deploys one classification and one regression model.
func testService(t testing.TB) *service.Service {
	t.Helper()
	s := service.New(service.Options{Serve: serve.Options{Replicas: 2}})
	t.Cleanup(s.Close)
	for name, m := range map[string]*core.Model{"errors": classModel(), "cpu": regModel()} {
		if _, err := s.Register(name, m); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Deploy(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// startServer serves svc over network ("tcp" or "unix") and returns
// the dial address plus the server for shutdown-shape tests.
func startServer(t testing.TB, svc *service.Service, network string, opts ServerOptions) (*Server, string) {
	t.Helper()
	var ln net.Listener
	var addr string
	var err error
	switch network {
	case "unix":
		addr = filepath.Join(t.TempDir(), "wire.sock")
		ln, err = net.Listen("unix", addr)
	default:
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			addr = ln.Addr().String()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, addr
}

func testClient(t testing.TB, network, addr string, opts ClientOptions) *Client {
	t.Helper()
	cl := Dial(network, addr, opts)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestPredictBitIdentical: a prediction served over the wire must be
// bit-for-bit the prediction the pool hands a direct caller, on both
// TCP and unix transports, for classification and regression models.
func TestPredictBitIdentical(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			_, addr := startServer(t, svc, network, ServerOptions{})
			cl := testClient(t, network, addr, ClientOptions{})
			for _, model := range []string{"errors", "cpu"} {
				for _, stmt := range testStatements(10) {
					want, err := svc.Predict(ctx, model, stmt)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := cl.PredictInto(ctx, model, stmt, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !predEqual(got, want) {
						t.Fatalf("%s %q: wire %+v != direct %+v", model, stmt, got, want)
					}
				}
			}
		})
	}
}

// predEqual compares predictions bitwise (NaN-safe on the float
// fields, exact bit patterns on probabilities).
func predEqual(a, b service.Prediction) bool {
	if a.Name != b.Name || a.Version != b.Version ||
		a.Classification != b.Classification || a.Class != b.Class ||
		math.Float64bits(a.Log) != math.Float64bits(b.Log) ||
		math.Float64bits(a.Raw) != math.Float64bits(b.Raw) ||
		len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Probs {
		if math.Float64bits(a.Probs[i]) != math.Float64bits(b.Probs[i]) {
			return false
		}
	}
	return true
}

func TestPredictBatch(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	_, addr := startServer(t, svc, "tcp", ServerOptions{})
	cl := testClient(t, "tcp", addr, ClientOptions{})

	stmts := testStatements(8)
	want, err := svc.PredictBatch(ctx, "errors", stmts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.PredictBatch(ctx, "errors", stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !predEqual(got[i], want[i]) {
			t.Fatalf("result %d: wire %+v != direct %+v", i, got[i], want[i])
		}
	}

	if _, err := cl.PredictBatch(ctx, "errors", nil); wireStatus(err) != http.StatusBadRequest {
		t.Fatalf("empty batch err = %v, want status 400", err)
	}
}

// wireStatus extracts the ServerError status, or 0.
func wireStatus(err error) int {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Status
	}
	return 0
}

// TestErrorMapping: wire error frames carry exactly the statuses the
// HTTP transport would return, with the pacing hint on overload-class
// failures.
func TestErrorMapping(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	_, addr := startServer(t, svc, "tcp", ServerOptions{})
	cl := testClient(t, "tcp", addr, ClientOptions{})

	if _, _, err := cl.PredictInto(ctx, "nope", "SELECT 1", nil); wireStatus(err) != http.StatusNotFound {
		t.Fatalf("unknown model err = %v, want 404", err)
	}

	if _, err := svc.Register("parked", classModel()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.PredictInto(ctx, "parked", "SELECT 1", nil); wireStatus(err) != http.StatusConflict {
		t.Fatalf("undeployed model err = %v, want 409", err)
	}

	// An expired deadline short-circuits client-side with the context
	// sentinel, same as the HTTP client path.
	expired, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, _, err := cl.PredictInto(expired, "errors", "SELECT 1", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx err = %v, want DeadlineExceeded", err)
	}

	// A malformed payload on a well-framed request gets a 400 error
	// frame and the connection keeps serving.
	if _, err := cl.Call(ctx, service.OpStats, []byte("{not json")); wireStatus(err) != http.StatusBadRequest {
		t.Fatalf("bad stats payload err = %v, want 400", err)
	}
	if _, _, err := cl.PredictInto(ctx, "errors", testStatements(1)[0], nil); err != nil {
		t.Fatalf("connection did not survive a payload error: %v", err)
	}
}

// TestControlPlane: the JSON control ops answer with the same shapes
// the HTTP handlers marshal, because they marshal the same structs.
func TestControlPlane(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	_, addr := startServer(t, svc, "tcp", ServerOptions{})
	cl := testClient(t, "tcp", addr, ClientOptions{})

	js, err := cl.Call(ctx, service.OpModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	var infos []service.ModelInfo
	if err := json.Unmarshal(js, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("models = %+v", infos)
	}

	if _, _, err := cl.PredictInto(ctx, "errors", testStatements(1)[0], nil); err != nil {
		t.Fatal(err)
	}
	js, err = cl.Call(ctx, service.OpStats, []byte(`{"model":"errors"}`))
	if err != nil {
		t.Fatal(err)
	}
	var snap service.StatsSnapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Info.Name != "errors" || snap.Stats.Completed == 0 {
		t.Fatalf("stats snapshot = %+v", snap)
	}
	// The snapshot must be the same struct the HTTP handler returns.
	direct, err := svc.StatsSnapshot("errors")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Info, direct.Info) {
		t.Fatalf("wire info %+v != direct %+v", snap.Info, direct.Info)
	}

	js, err = cl.Call(ctx, service.OpHealthz, nil)
	if err != nil {
		t.Fatal(err)
	}
	var h service.Health
	if err := json.Unmarshal(js, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}

	js, err = cl.Call(ctx, service.OpDeploy, []byte(`{"model":"errors"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info service.ModelInfo
	if err := json.Unmarshal(js, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Live {
		t.Fatalf("deploy info = %+v", info)
	}
	if _, err := cl.Call(ctx, service.OpDeploy, []byte(`{"model":"errors","admission":"bogus"}`)); wireStatus(err) != http.StatusBadRequest {
		t.Fatalf("bad deploy options err = %v, want 400", err)
	}

	js, err = cl.Call(ctx, service.OpGC, nil)
	if err != nil {
		t.Fatal(err)
	}
	var gc struct {
		Results []service.GCResult `json:"results"`
	}
	if err := json.Unmarshal(js, &gc); err != nil {
		t.Fatal(err)
	}
	if len(gc.Results) == 0 {
		t.Fatalf("gc = %s", js)
	}
}

// TestPipelinedConcurrent floods one connection from many goroutines
// (out-of-order completion exercised by construction) and checks every
// reply against the direct pool result. Run under -race this is the
// demux safety proof.
func TestPipelinedConcurrent(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	_, addr := startServer(t, svc, "tcp", ServerOptions{})
	cl := testClient(t, "tcp", addr, ClientOptions{Conns: 1})

	stmts := testStatements(16)
	want := make([]service.Prediction, len(stmts))
	for i, stmt := range stmts {
		pr, err := svc.Predict(ctx, "errors", stmt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pr
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			probs := make([]float64, 0, 8)
			for i := 0; i < 50; i++ {
				k := (w*50 + i) % len(stmts)
				pr, out, err := cl.PredictInto(ctx, "errors", stmts[k], probs)
				probs = out
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
				if !predEqual(pr, want[k]) {
					errs <- fmt.Errorf("worker %d op %d: wire %+v != direct %+v", w, i, pr, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConnKillMidRequest: a connection dying between request and reply
// surfaces as a typed ErrTransport (the client's retryable class), not
// a hang or an untyped failure.
func TestConnKillMidRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- nc
	}()

	cl := testClient(t, "tcp", ln.Addr().String(), ClientOptions{Conns: 1})
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.PredictInto(context.Background(), "errors", "SELECT 1", nil)
		done <- err
	}()

	nc := <-accepted
	// Consume the request frame, then kill the connection mid-request.
	fr := frameReader{r: nc, maxPayload: DefaultMaxPayload}
	if _, _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("mid-request kill err = %v, want ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after mid-request connection kill")
	}

	// The client must transparently redial for the next call.
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		srvFr := frameReader{r: nc, maxPayload: DefaultMaxPayload}
		h, _, err := srvFr.next()
		if err != nil {
			return
		}
		pr := testPrediction()
		frame := beginFrame(nil, MsgPredictReply, h.ID)
		frame = appendPredictReply(frame, []service.Prediction{pr})
		nc.Write(endFrame(frame, 0))
	}()
	pr, _, err := cl.PredictInto(context.Background(), "m", "SELECT 1", nil)
	if err != nil {
		t.Fatalf("redial after kill: %v", err)
	}
	if !predEqual(pr, testPrediction()) {
		t.Fatalf("redial prediction = %+v", pr)
	}
}

// TestGracefulDrain: requests in flight when Shutdown starts complete
// with valid replies; requests racing the teardown fail typed. Nothing
// hangs, nothing is silently wrong.
func TestGracefulDrain(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, ServerOptions{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	cl := testClient(t, "tcp", ln.Addr().String(), ClientOptions{Conns: 2})
	stmt := testStatements(1)[0]
	want, err := svc.Predict(ctx, "errors", stmt)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var ok, transport, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr, _, err := cl.PredictInto(ctx, "errors", stmt, nil)
				mu.Lock()
				switch {
				case err == nil && predEqual(pr, want):
					ok++
				case errors.Is(err, ErrTransport):
					transport++
					mu.Unlock()
					return
				default:
					other++
					mu.Unlock()
					return
				}
				mu.Unlock()
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let load build
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v", err)
	}

	if other != 0 {
		t.Fatalf("%d requests failed with non-transport errors during drain", other)
	}
	if ok == 0 {
		t.Fatal("no requests completed before drain")
	}
	t.Logf("drain: %d ok, %d transport-failed, 0 wrong", ok, transport)

	// Post-shutdown connections are refused outright.
	if _, _, err := cl.PredictInto(ctx, "errors", stmt, nil); !errors.Is(err, ErrTransport) {
		t.Fatalf("post-shutdown predict err = %v, want ErrTransport", err)
	}
}

// TestUnknownRequestHandled: a well-framed control request the server
// cannot run — a malformed body, no op byte, an op byte the op table
// does not know — gets a 400 error frame, and the connection keeps
// serving.
func TestUnknownRequestHandled(t *testing.T) {
	svc := testService(t)
	_, addr := startServer(t, svc, "tcp", ServerOptions{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fr := frameReader{r: nc, maxPayload: DefaultMaxPayload}
	for id, payload := range map[uint64][]byte{
		77: {byte(service.OpStats)}, // empty body: malformed JSON
		78: nil,                     // no op byte
		79: {0xEE, '{', '}'},        // unknown op
	} {
		if _, err := nc.Write(AppendFrame(nil, MsgControl, id, payload)); err != nil {
			t.Fatal(err)
		}
		h, reply, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != MsgError || h.ID != id {
			t.Fatalf("request %d: reply = %+v", id, h)
		}
		status, _, msg, err := decodeErrorReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusBadRequest {
			t.Fatalf("request %d: status = %d (%s), want 400", id, status, msg)
		}
	}
	// Connection still serves.
	if _, err := nc.Write(AppendFrame(nil, MsgControl, 80, []byte{byte(service.OpHealthz)})); err != nil {
		t.Fatal(err)
	}
	if h, _, err := fr.next(); err != nil || h.Type != MsgJSON || h.ID != 80 {
		t.Fatalf("follow-up reply = %+v, %v", h, err)
	}
}

// TestClientRefusesUnframable: a request the frame cannot carry — a
// payload past DefaultMaxPayload, a model name past the u16 length
// prefix — is refused with the typed status before any I/O. The
// client here points at no server at all, so a dial would surface as
// ErrTransport instead.
func TestClientRefusesUnframable(t *testing.T) {
	cl := testClient(t, "unix", filepath.Join(t.TempDir(), "none.sock"), ClientOptions{})
	ctx := context.Background()
	huge := strings.Repeat("x", DefaultMaxPayload)
	if _, _, err := cl.PredictInto(ctx, "m", huge, nil); wireStatus(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize predict err = %v, want 413", err)
	}
	if _, err := cl.PredictBatch(ctx, "m", []string{huge[:DefaultMaxPayload/2], huge[:DefaultMaxPayload/2]}); wireStatus(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch err = %v, want 413", err)
	}
	if _, err := cl.Call(ctx, service.OpIngest, []byte(huge)); wireStatus(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize control err = %v, want 413", err)
	}
	if _, _, err := cl.PredictInto(ctx, strings.Repeat("m", 1<<16), "SELECT 1", nil); wireStatus(err) != http.StatusBadRequest {
		t.Fatalf("64 KiB model name err = %v, want 400", err)
	}
	if _, _, err := cl.PredictInto(ctx, "m", "SELECT 1", nil); !errors.Is(err, ErrTransport) {
		t.Fatalf("framable predict err = %v, want ErrTransport from the dial", err)
	}
}

// TestZeroAllocLoopback pins the tentpole's allocation contract: a
// warm single predict over a real TCP loopback allocates nothing on
// either side of the socket (AllocsPerRun counts process-wide mallocs,
// so server-side handler allocations would show up here too).
func TestZeroAllocLoopback(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	svc := testService(t)
	ctx := context.Background()
	_, addr := startServer(t, svc, "tcp", ServerOptions{})
	cl := testClient(t, "tcp", addr, ClientOptions{Conns: 1})

	stmt := testStatements(1)[0]
	var probs []float64
	// Warm both sides: connection dial, buffer growth, pool priming.
	for i := 0; i < 200; i++ {
		pr, out, err := cl.PredictInto(ctx, "errors", stmt, probs)
		if err != nil {
			t.Fatal(err)
		}
		probs = out
		_ = pr
	}
	allocs := testing.AllocsPerRun(300, func() {
		_, out, err := cl.PredictInto(ctx, "errors", stmt, probs)
		if err != nil {
			t.Fatal(err)
		}
		probs = out
	})
	// Tolerate the occasional runtime-internal malloc (timer wheels,
	// map rehash) but fail on any per-op allocation.
	if allocs > 0.05 {
		t.Errorf("warm loopback predict: %.2f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocLoopbackWithIngest extends the contract end to end
// through the online-learning tap: with a WAL attached and every
// served prediction sampled into it (IngestEvery=1), a warm predict
// over the socket still allocates nothing — the sampling counter is
// atomic, the record is stack-built, and the WAL reuses its encode
// buffer.
func TestZeroAllocLoopbackWithIngest(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	wal, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	svc := service.New(service.Options{
		Serve:  serve.Options{Replicas: 2},
		Ingest: wal, IngestEvery: 1,
	})
	t.Cleanup(svc.Close)
	if _, err := svc.Swap("errors", classModel()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, addr := startServer(t, svc, "tcp", ServerOptions{})
	cl := testClient(t, "tcp", addr, ClientOptions{Conns: 1})

	stmt := testStatements(1)[0]
	var probs []float64
	for i := 0; i < 200; i++ {
		_, out, err := cl.PredictInto(ctx, "errors", stmt, probs)
		if err != nil {
			t.Fatal(err)
		}
		probs = out
	}
	allocs := testing.AllocsPerRun(300, func() {
		_, out, err := cl.PredictInto(ctx, "errors", stmt, probs)
		if err != nil {
			t.Fatal(err)
		}
		probs = out
	})
	if allocs > 0.05 {
		t.Errorf("warm loopback predict with ingest sampling: %.2f allocs/op, want 0", allocs)
	}
	if st := wal.Stats(); st.Appended < 500 {
		t.Errorf("WAL got %d records, want every served predict (>= 500)", st.Appended)
	}
}
