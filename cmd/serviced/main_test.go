package main

import (
	"bytes"
	"context"
	"flag"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestParseFlags covers validation: defaults, admission policies, and
// the rejection of nonsensical values.
func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-models", "ccnn, wlstm", "-task", "cpu",
		"-replicas", "3", "-admission", "block", "-max-batch", "16"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.models) != 2 || cfg.models[1] != "wlstm" {
		t.Fatalf("models = %v", cfg.models)
	}
	if cfg.task != core.CPUTimePrediction || cfg.replicas != 3 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.admission != serve.AdmitBlock || cfg.maxBatch != 16 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.pprofAddr != "" {
		t.Fatalf("pprof must be disabled by default, got %q", cfg.pprofAddr)
	}

	cfg, err = parseFlags([]string{"-pprof-addr", "localhost:6060"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.pprofAddr != "localhost:6060" {
		t.Fatalf("pprofAddr = %q", cfg.pprofAddr)
	}

	cfg, err = parseFlags([]string{"-store-dir", "/tmp/models"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.storeDir != "/tmp/models" {
		t.Fatalf("storeDir = %q", cfg.storeDir)
	}

	for _, bad := range [][]string{
		{"-replicas", "0"},
		{"-replicas", "-2"},
		{"-sessions", "0"},
		{"-models", " , "},
		{"-task", "nonsense"},
		{"-admission", "maybe"},
		{"-online", "-ingest-dir", "wal", "-store-dir", "store", "-store-refresh", "1s"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted invalid flags", bad)
		}
	}

	// One learner per shared store: the refusal says why, and -online
	// alone on that store still starts.
	online := []string{"-online", "-ingest-dir", "wal", "-store-dir", "store"}
	if _, err := parseFlags(online); err != nil {
		t.Errorf("parseFlags(%v) = %v", online, err)
	}
	_, err = parseFlags(append(online, "-store-refresh", "1s"))
	if err == nil || !strings.Contains(err.Error(), "same next version number") {
		t.Errorf("-online with -store-refresh: err = %v, want the reason named", err)
	}
}

// TestFlagSurface pins serviced's flag set, the counterpart of the
// root package's TestServingSurfaceMethods: the names below are the
// whole command line, so a flag can be renamed or replaced but not
// added without the count — and whoever reviews it — noticing.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "admission", "canary-margin", "drain", "ingest-dir", "ingest-sample",
		"max-batch", "models", "online", "online-window", "pprof-addr", "queue",
		"replicas", "retain", "sessions", "store-dir", "store-refresh", "task",
		"wire-addr", "wire-unix",
	}
	fs, _ := flagSet()
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // lexical order
	if !slices.Equal(got, want) {
		t.Fatalf("serviced takes %d flags %v,\nwant the pinned %d %v", len(got), got, len(want), want)
	}
}

// syncBuffer is an io.Writer safe for the run goroutine to write while
// the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr reserves a loopback port for a serviced instance.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startServiced runs run() in a goroutine and returns its output
// buffer and exit channel.
func startServiced(t *testing.T, args []string) (*syncBuffer, chan error) {
	t.Helper()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(args, out) }()
	return out, done
}

// stopServiced delivers SIGTERM (run's own signal handler fields it)
// and waits for a clean exit.
func stopServiced(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serviced exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serviced did not exit after SIGTERM")
	}
}

// waitLive polls until the named model has a live version.
func waitLive(t *testing.T, c *client.Client, name string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for {
		models, err := c.Models(ctx)
		if err == nil {
			for _, m := range models {
				if m.Name == name && m.LiveVersion > 0 {
					return
				}
			}
		}
		select {
		case <-ctx.Done():
			t.Fatalf("%s never went live (last models: %+v, err: %v)", name, models, err)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

var probeStatements = []string{
	"SELECT TOP 10 objID, ra, dec FROM PhotoObj WHERE r < 22",
	"SELECT COUNT(*) FROM SpecObj WHERE z > 0.1",
	"SELECT p.objID FROM PhotoObj p JOIN SpecObj s ON p.objID = s.bestObjID",
	"SELCT broken FROM",
}

// TestRestartPersistence is the end-to-end durability acceptance test:
// deploy a model through a real serviced with a store dir, kill the
// process loop, restart it against the same dir, and require (1) no
// retraining and (2) bit-identical predictions for a fixed query set.
func TestRestartPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model end to end")
	}
	dir := t.TempDir()
	addr := freeAddr(t)
	wireAddr := freeAddr(t)
	args := []string{
		"-addr", addr, "-wire-addr", wireAddr, "-models", "ccnn", "-task", "error",
		"-sessions", "200", "-replicas", "1", "-store-dir", dir,
	}
	c, err := client.New("http://"+addr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	out1, done1 := startServiced(t, args)
	waitLive(t, c, "ccnn")
	if !strings.Contains(out1.String(), "training ccnn") {
		t.Fatalf("first boot did not train; output:\n%s", out1.String())
	}
	before, err := c.PredictBatch(ctx, "ccnn", probeStatements)
	if err != nil {
		t.Fatal(err)
	}

	// The wire transport must serve the same model: predictions over
	// tcp:// bit-identical to the HTTP answers.
	if !strings.Contains(out1.String(), "wire protocol on") {
		t.Fatalf("serviced did not announce the wire listener; output:\n%s", out1.String())
	}
	cw, err := client.New("tcp://"+wireAddr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	overWire, err := cw.PredictBatch(ctx, "ccnn", probeStatements)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probeStatements {
		if overWire[i].Class != before[i].Class || len(overWire[i].Probs) != len(before[i].Probs) {
			t.Fatalf("stmt %d: wire %+v, http %+v", i, overWire[i], before[i])
		}
		for cidx := range before[i].Probs {
			if overWire[i].Probs[cidx] != before[i].Probs[cidx] {
				t.Fatalf("stmt %d prob %d: wire %v != http %v", i, cidx,
					overWire[i].Probs[cidx], before[i].Probs[cidx])
			}
		}
	}
	stopServiced(t, done1)

	// Restart against the same store dir on a fresh port.
	addr2 := freeAddr(t)
	args[1] = addr2
	args[3] = freeAddr(t)
	c2, err := client.New("http://"+addr2, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	out2, done2 := startServiced(t, args)
	waitLive(t, c2, "ccnn")
	if strings.Contains(out2.String(), "training") {
		t.Fatalf("restart retrained instead of warm-booting; output:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "warm-booted ccnn v1") {
		t.Fatalf("restart did not warm-boot; output:\n%s", out2.String())
	}
	after, err := c2.PredictBatch(ctx, "ccnn", probeStatements)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probeStatements {
		if before[i].Class != after[i].Class || len(before[i].Probs) != len(after[i].Probs) {
			t.Fatalf("stmt %d: pre-restart %+v, post-restart %+v", i, before[i], after[i])
		}
		for cidx := range before[i].Probs {
			if before[i].Probs[cidx] != after[i].Probs[cidx] {
				t.Fatalf("stmt %d prob %d: %v != %v (not bit-identical across restart)",
					i, cidx, before[i].Probs[cidx], after[i].Probs[cidx])
			}
		}
	}
	stopServiced(t, done2)
}

// TestRestartTaskMismatch: restarting a store against a different
// -task must fail loudly instead of silently serving the wrong task's
// predictions under the new label.
func TestRestartTaskMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model end to end")
	}
	dir := t.TempDir()
	addr := freeAddr(t)
	c, err := client.New("http://"+addr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, done := startServiced(t, []string{
		"-addr", addr, "-models", "ccnn", "-task", "error",
		"-sessions", "200", "-replicas", "1", "-store-dir", dir,
	})
	waitLive(t, c, "ccnn")
	stopServiced(t, done)

	out2 := &syncBuffer{}
	err = run([]string{
		"-addr", freeAddr(t), "-models", "ccnn", "-task", "cpu",
		"-sessions", "200", "-replicas", "1", "-store-dir", dir,
	}, out2)
	if err == nil || !strings.Contains(err.Error(), "-task") {
		t.Fatalf("restart under a different -task err = %v, want task-mismatch error", err)
	}
}

// TestGracefulShutdownDrain checks requests in flight when SIGTERM
// arrives complete successfully: the listener stops accepting but the
// drain finishes the admitted work before the pools close.
func TestGracefulShutdownDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model end to end")
	}
	addr := freeAddr(t)
	_, done := startServiced(t, []string{
		"-addr", addr, "-models", "ccnn", "-task", "error",
		"-sessions", "200", "-replicas", "1", "-admission", "block",
	})
	c, err := client.New("http://"+addr, client.Options{Timeout: 30 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitLive(t, c, "ccnn")

	// A big batch is in flight while the SIGTERM lands: every admitted
	// request must still be answered.
	batch := make([]string, 2000)
	for i := range batch {
		batch[i] = probeStatements[i%len(probeStatements)]
	}
	resc := make(chan error, 1)
	waitInFlight(t, c, "ccnn", func() {
		out, err := c.PredictBatch(context.Background(), "ccnn", batch)
		if err == nil && len(out) != len(batch) {
			err = context.DeadlineExceeded
		}
		resc <- err
	})
	stopServiced(t, done)
	if err := <-resc; err != nil {
		t.Fatalf("in-flight batch failed during graceful shutdown: %v", err)
	}
}

// waitInFlight runs send on its own goroutine and returns once the
// server is working on it: a request waits for model's replica, or
// more have completed than before send started. With -replicas 1, a
// 2 000-statement batch is 63 requests run one after another on the
// call's goroutine, so it is still in flight when the first completes.
func waitInFlight(t *testing.T, c *client.Client, model string, send func()) {
	t.Helper()
	ctx := context.Background()
	st, err := c.Stats(ctx, model)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats.Completed
	go send()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := c.Stats(ctx, model)
		if err == nil && (st.Stats.QueueDepth > 0 || st.Stats.Completed > before) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never reached the server: stats %+v, %v", st, err)
		}
	}
}

// TestWireGracefulDrain is the wire-transport twin of the drain test:
// a pipelined batch in flight on the binary protocol when SIGTERM
// lands must be answered before the process exits, and the socket must
// be gone afterwards.
func TestWireGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model end to end")
	}
	addr := freeAddr(t)
	wireAddr := freeAddr(t)
	_, done := startServiced(t, []string{
		"-addr", addr, "-wire-addr", wireAddr, "-models", "ccnn", "-task", "error",
		"-sessions", "200", "-replicas", "1", "-admission", "block",
	})
	ch, err := client.New("http://"+addr, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	waitLive(t, ch, "ccnn")

	cw, err := client.New("tcp://"+wireAddr, client.Options{Timeout: 30 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()

	batch := make([]string, 2000)
	for i := range batch {
		batch[i] = probeStatements[i%len(probeStatements)]
	}
	resc := make(chan error, 1)
	waitInFlight(t, ch, "ccnn", func() {
		out, err := cw.PredictBatch(context.Background(), "ccnn", batch)
		if err == nil && len(out) != len(batch) {
			err = context.DeadlineExceeded
		}
		resc <- err
	})
	stopServiced(t, done)
	if err := <-resc; err != nil {
		t.Fatalf("in-flight wire batch failed during graceful shutdown: %v", err)
	}

	// The listener is down: a fresh wire request now fails to connect.
	c2, err := client.New("tcp://"+wireAddr, client.Options{Retries: -1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Predict(context.Background(), "ccnn", probeStatements[0]); err == nil {
		t.Fatal("predict after shutdown succeeded; listener still alive")
	}
}

// TestOnlineLoopSwapsOnDrift is the end-to-end adaptation smoke: a
// real serviced with the ingest WAL and online pipeline enabled
// observes a drifted workload (feedback arriving over both transports
// says every probe statement now fails with class 2), fine-tunes on
// it, and the canary swaps the adapted version in within the test
// budget.
func TestOnlineLoopSwapsOnDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model end to end")
	}
	addr := freeAddr(t)
	wireAddr := freeAddr(t)
	args := []string{
		"-addr", addr, "-wire-addr", wireAddr, "-models", "ccnn", "-task", "error",
		"-sessions", "200", "-replicas", "1",
		"-store-dir", t.TempDir(), "-ingest-dir", t.TempDir(), "-ingest-sample", "4",
		"-online", "-online-window", "8", "-canary-margin", "0",
	}
	c, err := client.New("http://"+addr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cw, err := client.New("tcp://"+wireAddr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	ctx := context.Background()

	out, done := startServiced(t, args)
	waitLive(t, c, "ccnn")
	// The pipeline starts, and is announced, just after the boot that
	// made the model live returns: give the announcement a moment.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(out.String(), "online pipeline"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serviced did not announce the online pipeline; output:\n%s", out.String())
		}
	}

	// Drift: ground-truth feedback keeps saying class 2, one window at
	// a time (half over HTTP, half over the wire transport), until the
	// pipeline has fine-tuned the serving model into the new regime.
	sendWindow := func() {
		for i := 0; i < 8; i++ {
			stmt := probeStatements[i%len(probeStatements)]
			fc := c
			if i%2 == 0 {
				fc = cw
			}
			if err := fc.Feedback(ctx, "ccnn", stmt, 2, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	sendWindow()

	deadline := time.Now().Add(120 * time.Second)
	for {
		models, err := c.Models(ctx)
		if err == nil && len(models) == 1 && models[0].LiveVersion >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("online pipeline never swapped (models: %+v, err: %v); output:\n%s",
				models, err, out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Adaptation end to end: successive windows pull the live model all
	// the way over to the drifted truth.
	for {
		pr, err := cw.Predict(ctx, "ccnn", probeStatements[0])
		if err != nil {
			t.Fatal(err)
		}
		if pr.Class == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("model never adapted to the drift (still predicts %d); output:\n%s",
				pr.Class, out.String())
		}
		sendWindow()
		time.Sleep(100 * time.Millisecond)
	}
	stopServiced(t, done)
}
