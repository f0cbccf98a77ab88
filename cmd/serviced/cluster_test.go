package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
)

// buildServiced compiles the serviced binary once per test run (or
// honors SERVICED_BIN, which CI sets after building it as a dedicated
// step) and returns its path.
var buildOnce struct {
	sync.Once
	bin string
	err error
}

func buildServiced(t *testing.T) string {
	t.Helper()
	if bin := os.Getenv("SERVICED_BIN"); bin != "" {
		return bin
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "serviced-bin-")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "serviced")
		cmd := exec.Command("go", "build", "-o", bin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

// nodeProc is one spawned serviced process.
type nodeProc struct {
	addr string
	cmd  *exec.Cmd
	out  *syncBuffer
	done chan error
}

// spawnNode starts a real serviced process on addr over the shared
// store dir. Every node polls the store, so a deploy on any one of
// them reaches the others within one refresh interval.
func spawnNode(t *testing.T, bin, addr, storeDir string) *nodeProc {
	t.Helper()
	out := &syncBuffer{}
	cmd := exec.Command(bin,
		"-addr", addr, "-models", "ccnn", "-task", "error",
		"-sessions", "200", "-replicas", "1",
		"-store-dir", storeDir, "-store-refresh", "50ms")
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	n := &nodeProc{addr: addr, cmd: cmd, out: out, done: make(chan error, 1)}
	go func() { n.done <- cmd.Wait() }()
	t.Cleanup(func() { n.kill() })
	return n
}

// kill delivers SIGKILL — no drain, no goodbye — and reaps the process.
func (n *nodeProc) kill() {
	if n.cmd.Process != nil {
		n.cmd.Process.Kill()
	}
	select {
	case <-n.done:
	case <-time.After(10 * time.Second):
	}
}

// terminate asks for a graceful shutdown and waits for a clean exit.
func (n *nodeProc) terminate(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-n.done:
		if err != nil {
			t.Fatalf("node %s exited with %v; output:\n%s", n.addr, err, n.out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("node %s did not exit after SIGTERM", n.addr)
	}
}

// nodeClient builds a single-node client for direct (no-failover)
// checks against one process.
func nodeClient(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.New("http://"+addr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sameBits asserts two prediction sets are bit-identical.
func sameBits(t *testing.T, label string, want, got []client.Prediction) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d predictions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Class != got[i].Class || len(want[i].Probs) != len(got[i].Probs) {
			t.Fatalf("%s: stmt %d: got %+v, want %+v", label, i, got[i], want[i])
		}
		for c := range want[i].Probs {
			if math.Float64bits(want[i].Probs[c]) != math.Float64bits(got[i].Probs[c]) {
				t.Fatalf("%s: stmt %d prob not bit-identical: %v != %v",
					label, i, got[i].Probs[c], want[i].Probs[c])
			}
		}
	}
}

// TestClusterSIGKILL is the chaos acceptance test for the shared-store
// cluster: three real serviced processes on loopback over one store
// directory, a cluster client under concurrent load, SIGKILL of the
// ring-primary node mid-traffic. Requires zero failed requests,
// bit-identical predictions from the survivors, and re-admission of
// the node after it restarts.
func TestClusterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs three serviced processes")
	}
	bin := buildServiced(t)
	dir := t.TempDir()
	ctx := context.Background()

	// Node 1 boots first and trains; nodes 2 and 3 join after the
	// artifacts exist, warm-boot them from the store, and never train.
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	procs := map[string]*nodeProc{addrs[0]: spawnNode(t, bin, addrs[0], dir)}
	waitLive(t, nodeClient(t, addrs[0]), "ccnn")
	if !strings.Contains(procs[addrs[0]].out.String(), "training ccnn") {
		t.Fatalf("node 1 did not train; output:\n%s", procs[addrs[0]].out.String())
	}
	for _, addr := range addrs[1:] {
		procs[addr] = spawnNode(t, bin, addr, dir)
	}
	for _, addr := range addrs[1:] {
		waitLive(t, nodeClient(t, addr), "ccnn")
		if strings.Contains(procs[addr].out.String(), "training") {
			t.Fatalf("node %s trained instead of warm-booting; output:\n%s", addr, procs[addr].out.String())
		}
	}

	// Every node answers bit-identically before any chaos.
	baseline, err := nodeClient(t, addrs[0]).PredictBatch(ctx, "ccnn", probeStatements)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs[1:] {
		got, err := nodeClient(t, addr).PredictBatch(ctx, "ccnn", probeStatements)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "pre-chaos node "+addr, baseline, got)
	}

	urls := make([]string, len(addrs))
	for i, addr := range addrs {
		urls[i] = "http://" + addr
	}
	cc, err := client.New("", client.Options{
		Addrs:         urls,
		Timeout:       10 * time.Second,
		Retries:       4,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// SIGKILL the node the ring prefers for this model — the worst
	// case: every request's first choice dies.
	ring := cluster.NewRing(urls, 0)
	primaryURL := ring.Addrs()[ring.OrderInto("ccnn", nil)[0]]
	primary := procs[strings.TrimPrefix(primaryURL, "http://")]

	var successes, failures, mismatches atomic.Uint64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % len(probeStatements)
				p, err := cc.Predict(ctx, "ccnn", probeStatements[k])
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				ok := p.Class == baseline[k].Class && len(p.Probs) == len(baseline[k].Probs)
				for c := 0; ok && c < len(p.Probs); c++ {
					ok = math.Float64bits(p.Probs[c]) == math.Float64bits(baseline[k].Probs[c])
				}
				if !ok {
					mismatches.Add(1)
				}
				successes.Add(1)
			}
		}()
	}

	time.Sleep(300 * time.Millisecond) // traffic flowing through all nodes
	primary.kill()                     // SIGKILL, mid-traffic
	time.Sleep(1 * time.Second)        // survivors carry the load
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d requests failed across the SIGKILL (first: %v)", f, firstErr.Load())
	}
	if m := mismatches.Load(); m != 0 {
		t.Fatalf("%d predictions were not bit-identical to the baseline", m)
	}
	if s := successes.Load(); s < 100 {
		t.Fatalf("only %d requests completed; load generator never got going", s)
	}

	// Restart the killed node on its old address: it warm-boots from
	// the shared store and the client's health probes re-admit it.
	restarted := spawnNode(t, bin, primary.addr, dir)
	waitLive(t, nodeClient(t, primary.addr), "ccnn")
	if strings.Contains(restarted.out.String(), "training") {
		t.Fatalf("restarted node retrained; output:\n%s", restarted.out.String())
	}
	got, err := nodeClient(t, primary.addr).PredictBatch(ctx, "ccnn", probeStatements)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "restarted node", baseline, got)

	deadline := time.Now().Add(30 * time.Second)
	for {
		up := false
		for _, ns := range cc.Nodes() {
			if ns.Addr == primaryURL && ns.State == "up" {
				up = true
			}
		}
		if up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed node never re-admitted; node states: %+v", cc.Nodes())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if _, err := cc.Predict(ctx, "ccnn", probeStatements[0]); err != nil {
		t.Fatalf("cluster predict after re-admission: %v", err)
	}

	// A deploy issued to ONE node is servable from all three within a
	// refresh interval: redeploy v1 through the cluster client (which
	// routes the write to the ring primary) and watch the marker land
	// everywhere.
	if _, err := cc.Deploy(ctx, "ccnn", 1); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		got, err := nodeClient(t, addr).PredictBatch(ctx, "ccnn", probeStatements)
		if err != nil {
			t.Fatalf("node %s after cluster deploy: %v", addr, err)
		}
		sameBits(t, "post-deploy node "+addr, baseline, got)
	}

	for _, addr := range addrs {
		if p := procs[addr]; p != primary {
			p.terminate(t)
		}
	}
	restarted.terminate(t)
}
