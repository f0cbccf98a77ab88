package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// State is one node's health as the tracker currently believes it.
type State uint8

const (
	// StateUp: the node's last probe succeeded cleanly. New nodes start
	// Up (optimistic: requests flow immediately and the first failed
	// probe or request corrects the picture).
	StateUp State = iota
	// StateDegraded: the node answers probes but reports itself
	// degraded (e.g. a warm boot that quarantined artifacts). Routable,
	// but deprioritized behind Up nodes in failover order.
	StateDegraded
	// StateDown: downAfter consecutive probes failed. Skipped by
	// routing until a probe succeeds again.
	StateDown
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// Probe checks one node's health: err non-nil means the node is
// unreachable or unready; degraded true (with nil err) means it
// answers but reports a degraded state.
type Probe func(ctx context.Context) (degraded bool, err error)

// downAfter is how many consecutive probe failures mark a node Down:
// one lost probe is noise, two is a pattern.
const downAfter = 2

// Tracker maintains per-node health states from background probe
// loops: one goroutine per node, each probing at its interval plus
// jitter. State reads are lock-free. Close stops every probe loop and
// waits for them — a closed tracker leaks no goroutines.
type Tracker struct {
	interval time.Duration
	states   []atomic.Uint32
	failures []atomic.Int32 // consecutive probe failures per node
	probes   []Probe

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeOnce sync.Once
}

// NewTracker starts a tracker over probes (one per node, indexed like
// the ring's Addrs). Every node starts Up; the loops begin probing
// immediately. Each probe is bounded by interval, each cycle sleeps
// interval plus jitter of up to a quarter interval — drawn from a
// generator seeded by the node's index, so a fleet never thunders in
// lockstep yet every schedule replays exactly — and downAfter
// consecutive failures mark a node Down. interval <= 0 selects 500ms.
func NewTracker(probes []Probe, interval time.Duration) *Tracker {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Tracker{
		interval: interval,
		states:   make([]atomic.Uint32, len(probes)),
		failures: make([]atomic.Int32, len(probes)),
		probes:   probes,
		ctx:      ctx,
		cancel:   cancel,
	}
	t.wg.Add(len(probes))
	for i := range probes {
		go t.loop(i)
	}
	return t
}

// State returns node i's current health. Lock-free; safe from any
// goroutine.
func (t *Tracker) State(i int) State {
	return State(t.states[i].Load())
}

// Close stops every probe loop and waits for them to exit. Idempotent.
func (t *Tracker) Close() {
	t.closeOnce.Do(func() {
		t.cancel()
		t.wg.Wait()
	})
}

// ProbeNow runs node i's probe once, synchronously, feeding the result
// through the same state machine (and the same consecutive-failure
// counter) as the background loop. Tests (and impatient callers) use
// it to advance the tracker without waiting out the interval.
func (t *Tracker) ProbeNow(i int) State {
	t.probeOnce(i)
	return t.State(i)
}

// loop is one node's probe cycle: sleep (jitter first, then interval
// plus jitter), probe, apply the state machine, repeat until Close.
// Starting with a jitter-only sleep spreads a fleet's probes apart
// from the first cycle and leaves a window for synchronous callers
// (ProbeNow) to drive the state machine undisturbed.
func (t *Tracker) loop(i int) {
	defer t.wg.Done()
	// Per-node generator: deterministic, decorrelated across nodes so
	// their probe times drift apart.
	rng := rand.New(rand.NewSource(int64(i) * 7919))
	delay := time.Duration(rng.Int63n(int64(t.interval)/4 + 1))
	for {
		timer := time.NewTimer(delay)
		select {
		case <-t.ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		t.probeOnce(i)
		delay = t.interval + time.Duration(rng.Int63n(int64(t.interval)/4+1))
	}
}

// probeOnce runs one probe for node i and applies the state machine
// against the node's shared consecutive-failure counter.
func (t *Tracker) probeOnce(i int) {
	ctx, cancel := context.WithTimeout(t.ctx, t.interval)
	degraded, err := t.probes[i](ctx)
	cancel()
	if t.ctx.Err() != nil {
		return // closing; a canceled probe is not evidence
	}
	switch {
	case err != nil:
		if t.failures[i].Add(1) >= downAfter {
			t.states[i].Store(uint32(StateDown))
		}
	case degraded:
		t.failures[i].Store(0)
		t.states[i].Store(uint32(StateDegraded))
	default:
		t.failures[i].Store(0)
		t.states[i].Store(uint32(StateUp))
	}
}
