package client

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen is returned (without any network attempt) for calls to
// an endpoint whose circuit breaker is open: recent attempts failed at
// or above the trip rate (see Options), so the client sheds load off the
// struggling server until a half-open probe succeeds. Match with
// errors.Is. Short-circuited calls are never retried — the breaker IS
// the retry policy while it is open.
var ErrCircuitOpen = errors.New("client: circuit open")

// Breaker states, as reported by BreakerStats.
const (
	// BreakerClosed: traffic flows, outcomes fill the rolling window.
	BreakerClosed = "closed"
	// BreakerOpen: calls fail fast with ErrCircuitOpen until the
	// cooldown elapses.
	BreakerOpen = "open"
	// BreakerHalfOpen: one probe call is in flight (or permitted); its
	// outcome closes or re-opens the circuit.
	BreakerHalfOpen = "half-open"
)

// BreakerStats is one endpoint's circuit-breaker snapshot, from
// Client.Breakers.
type BreakerStats struct {
	// Endpoint is the API path the breaker guards (query string
	// stripped), e.g. "/v1/predict".
	Endpoint string `json:"endpoint"`
	// State is BreakerClosed, BreakerOpen, or BreakerHalfOpen.
	State string `json:"state"`
	// Successes and Failures count recorded attempt outcomes over the
	// breaker's lifetime (not just the rolling window).
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	// ShortCircuited counts calls rejected with ErrCircuitOpen.
	ShortCircuited uint64 `json:"short_circuited"`
	// Opened counts how many times the breaker tripped.
	Opened uint64 `json:"opened"`
}

// breakerPolicy is when an endpoint's circuit opens and for how long: a
// failure rate of at least threshold over a full window of attempts
// trips it, and it then rejects calls for cooldown before letting one
// half-open probe through.
type breakerPolicy struct {
	threshold float64
	window    int
	cooldown  time.Duration
}

// breaker is one endpoint's circuit state. The zero value plus a ring
// buffer is a closed breaker.
type breaker struct {
	mu    sync.Mutex
	state string // BreakerClosed / BreakerOpen / BreakerHalfOpen

	// ring is the rolling outcome window (true = failure) that decides
	// tripping; filled only while closed.
	ring []bool
	n    int // outcomes recorded since the last reset, caps at len(ring)
	idx  int

	openedAt time.Time
	probing  bool // a half-open probe is in flight

	successes, failures, shortCircuited, opened uint64
}

func newBreaker(window int) *breaker {
	return &breaker{state: BreakerClosed, ring: make([]bool, window)}
}

// allow decides whether a call may proceed. now is the injectable
// clock; cooldown is how long the breaker stays open before permitting
// a half-open probe.
func (b *breaker) allow(now time.Time, cooldown time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) < cooldown {
			b.shortCircuited++
			return ErrCircuitOpen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	case BreakerHalfOpen:
		if b.probing {
			b.shortCircuited++
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	default:
		return nil
	}
}

// record feeds one attempt outcome back. threshold is the failure rate
// over a full window that trips the breaker.
func (b *breaker) record(failed bool, now time.Time, threshold float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if failed {
		b.failures++
	} else {
		b.successes++
	}
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if failed {
			b.trip(now)
			return
		}
		b.state = BreakerClosed
		b.reset()
	case BreakerClosed:
		b.ring[b.idx] = failed
		b.idx = (b.idx + 1) % len(b.ring)
		if b.n < len(b.ring) {
			b.n++
		}
		if b.n < len(b.ring) {
			return // not enough evidence yet
		}
		fails := 0
		for _, f := range b.ring {
			if f {
				fails++
			}
		}
		if float64(fails) >= threshold*float64(len(b.ring)) {
			b.trip(now)
		}
	default:
		// A straggler from before the trip; cumulative counters only.
	}
}

// trip opens the circuit. Caller holds b.mu.
func (b *breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.opened++
	b.reset()
}

// reset clears the rolling window. Caller holds b.mu.
func (b *breaker) reset() {
	b.n, b.idx = 0, 0
	for i := range b.ring {
		b.ring[i] = false
	}
}

func (b *breaker) snapshot(endpoint string) BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		Endpoint: endpoint, State: b.state,
		Successes: b.successes, Failures: b.failures,
		ShortCircuited: b.shortCircuited, Opened: b.opened,
	}
}
