package client

import (
	"context"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/service"
)

// chaosNode is one in-process cluster member: its own Service over the
// shared store directory behind its own HTTP listener, killable
// abruptly (severed connections, closed listener — a process death as
// seen from the network) and rebindable on the same address.
type chaosNode struct {
	svc *service.Service
	srv *httptest.Server
}

func (n *chaosNode) url() string { return n.srv.URL }

// kill severs every open connection and closes the listener — no
// drain, the in-process stand-in for SIGKILL.
func (n *chaosNode) kill() {
	n.srv.CloseClientConnections()
	n.srv.Listener.Close()
}

// rebind reopens the node's old address over the same service — the
// "process restarted" half of the chaos cycle.
func (n *chaosNode) rebind(t *testing.T) {
	t.Helper()
	addr := strings.TrimPrefix(n.srv.URL, "http://")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(service.NewHandler(n.svc))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	n.srv = srv
	t.Cleanup(srv.Close)
}

// TestClusterChaosInProcessFaults is the race-detector variant of the
// multi-process SIGKILL test: three Services in one binary over a
// shared store directory — the followers behind a fault-injecting
// store wrapper — converging via WatchStore, driven through the
// cluster client under concurrent load while the ring-primary node
// dies abruptly. Zero failed requests, bit-identical predictions, and
// re-admission after the address comes back.
func TestClusterChaosInProcessFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs sustained concurrent load")
	}
	dir := t.TempDir()
	ctx := context.Background()
	stmts := testStatements(8)

	mkStore := func() *service.DirStore {
		ds, err := service.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	inj := faults.NewInjector(1)
	nodes := make([]*chaosNode, 3)
	for i := range nodes {
		var st service.Store = mkStore()
		if i > 0 {
			// Followers read the store through an injector that fails a
			// quarter of their sync I/O: convergence must survive a
			// flaky disk, not just a quiet one.
			st = faults.NewStore(st, inj)
		}
		svc := service.New(service.Options{Serve: serve.Options{Replicas: 1}, Store: st})
		if _, err := svc.WarmBoot(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		nodes[i] = &chaosNode{svc: svc, srv: httptest.NewServer(service.NewHandler(svc))}
		t.Cleanup(nodes[i].srv.Close)
	}
	inj.Add(faults.Rule{Op: faults.OpGet, Rate: 0.25})
	inj.Add(faults.Rule{Op: faults.OpList, Rate: 0.25})
	for _, n := range nodes[1:] {
		stop := n.svc.WatchStore(2*time.Millisecond, nil)
		t.Cleanup(stop)
	}

	// Deploy on node 1 only; the followers must converge through the
	// store despite the injected faults.
	if _, err := nodes[0].svc.Swap("chaos", testModel()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range nodes[1:] {
		for {
			if _, err := n.svc.Predict(ctx, "chaos", stmts[0]); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower never converged; injector stats: %v", func() any {
					ops, fired := inj.Stats()
					return []uint64{ops, fired}
				}())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	baseline := make([][]uint64, len(stmts))
	for k, stmt := range stmts {
		p, err := nodes[0].svc.Predict(ctx, "chaos", stmt)
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]uint64, len(p.Probs))
		for i, f := range p.Probs {
			bits[i] = math.Float64bits(f)
		}
		baseline[k] = bits
	}

	urls := make([]string, len(nodes))
	byURL := make(map[string]*chaosNode, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url()
		byURL[n.url()] = n
	}
	c, err := New("", Options{
		Addrs:         urls,
		Timeout:       10 * time.Second,
		Retries:       4,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ring := cluster.NewRing(urls, 0)
	primaryURL := ring.Addrs()[ring.OrderInto("chaos", nil)[0]]
	primary := byURL[primaryURL]

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
				k := i % len(stmts)
				p, err := c.Predict(ctx, "chaos", stmts[k])
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				ok := len(p.Probs) == len(baseline[k])
				for b := 0; ok && b < len(p.Probs); b++ {
					ok = math.Float64bits(p.Probs[b]) == baseline[k][b]
				}
				if !ok {
					mismatches.Add(1)
				}
				successes.Add(1)
			}
		}()
	}

	time.Sleep(100 * time.Millisecond)
	primary.kill()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d requests failed across the node death (first: %v)", f, firstErr.Load())
	}
	if m := mismatches.Load(); m != 0 {
		t.Fatalf("%d predictions were not bit-identical to the baseline", m)
	}
	if s := successes.Load(); s == 0 {
		t.Fatal("load generator completed no requests")
	}

	// The address comes back; the health probes re-admit the node.
	primary.rebind(t)
	deadline = time.Now().Add(15 * time.Second)
	for {
		up := false
		for _, ns := range c.Nodes() {
			if ns.Addr == primaryURL && ns.State == "up" {
				up = true
			}
		}
		if up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed node never re-admitted; states: %+v", c.Nodes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Predict(ctx, "chaos", stmts[0]); err != nil {
		t.Fatalf("predict after re-admission: %v", err)
	}
}
