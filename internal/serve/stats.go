package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// latRingSize is the number of latency samples each replica retains
// for the percentile estimates (a fixed ring, so recording is O(1)
// and allocation-free).
const latRingSize = 1024

// statsState is the predictor's observability state: atomic counters
// plus one latency sample ring per replica, so hot-path recording
// never contends across replicas.
type statsState struct {
	completed atomic.Uint64
	widthSum  atomic.Uint64 // sum over completed predictions of their forward pass's width
	rejected  atomic.Uint64 // AdmitReject refusals (ErrQueueFull)
	canceled  atomic.Uint64 // requests that gave up waiting for a replica (ctx expiry)
	panics    atomic.Uint64 // statements whose inference panicked
	rebuilds  atomic.Uint64 // replicas retired and rebuilt after panicLimit

	lat []latRing // one per replica
}

// latRing is one replica's latency samples. The mutex is effectively
// uncontended (only the call holding the replica records; Stats
// readers snapshot rarely).
type latRing struct {
	mu  sync.Mutex
	buf [latRingSize]int64 // nanoseconds
	n   uint64             // total samples ever recorded
}

func (l *latRing) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%latRingSize] = int64(d)
	l.n++
	l.mu.Unlock()
}

// snapshotInto appends the ring's retained samples to dst.
func (l *latRing) snapshotInto(dst []int64) []int64 {
	l.mu.Lock()
	m := l.n
	if m > latRingSize {
		m = latRingSize
	}
	dst = append(dst, l.buf[:m]...)
	l.mu.Unlock()
	return dst
}

// percentiles returns the p50 and p99 of the retained latency samples
// (nearest-rank over the merged per-replica ring snapshots).
func (s *statsState) percentiles() (p50, p99 time.Duration) {
	var samples []int64
	for w := range s.lat {
		samples = s.lat[w].snapshotInto(samples)
	}
	m := len(samples)
	if m == 0 {
		return 0, 0
	}
	slices.Sort(samples)
	p50 = time.Duration(samples[(m-1)*50/100])
	p99 = time.Duration(samples[(m-1)*99/100])
	return p50, p99
}

// Stats is a point-in-time snapshot of a Predictor's service metrics.
type Stats struct {
	// Completed is the number of finished predictions (statements, not
	// requests).
	Completed uint64
	// Rejected counts requests refused with ErrQueueFull under the
	// AdmitReject admission policy; Canceled counts requests whose
	// context expired while they were still waiting for a replica.
	Rejected uint64
	Canceled uint64
	// Panics counts statements whose inference panicked (each fails its
	// call with ErrPanicked); Rebuilds counts replicas retired and
	// rebuilt from the shared-weight snapshot after three strikes.
	Panics   uint64
	Rebuilds uint64
	// QueueDepth is the number of requests waiting for a replica right
	// now; one that gives up or is refused is gone from it at once.
	QueueDepth int
	// Uptime is the time since NewPredictor; Throughput is
	// Completed/Uptime in predictions per second.
	Uptime     time.Duration
	Throughput float64
	// P50 and P99 are request latencies (call entry to completion, the
	// wait for a replica included; one sample per request whatever its
	// width) over the most recent samples.
	P50, P99 time.Duration
	// EffectiveBatch is the mean, over completed predictions, of how
	// many statements shared their forward pass: the callers' own batch
	// sizes (capped at MaxBatch), 1.0 when every call was a single
	// statement.
	EffectiveBatch float64
}

// Stats snapshots the predictor's service metrics. Safe to call
// concurrently with predictions and after Close.
func (p *Predictor) Stats() Stats {
	s := Stats{
		Completed:  p.stats.completed.Load(),
		Rejected:   p.stats.rejected.Load(),
		Canceled:   p.stats.canceled.Load(),
		Panics:     p.stats.panics.Load(),
		Rebuilds:   p.stats.rebuilds.Load(),
		QueueDepth: int(p.waiting.Load()),
		Uptime:     time.Since(p.start),
	}
	if s.Uptime > 0 {
		s.Throughput = float64(s.Completed) / s.Uptime.Seconds()
	}
	if s.Completed > 0 {
		s.EffectiveBatch = float64(p.stats.widthSum.Load()) / float64(s.Completed)
	}
	s.P50, s.P99 = p.stats.percentiles()
	return s
}

// String renders the snapshot for logs and load drivers.
func (s Stats) String() string {
	return fmt.Sprintf(
		"completed=%d throughput=%.0f/s p50=%s p99=%s queue=%d eff-batch=%.1f rejected=%d canceled=%d panics=%d rebuilds=%d uptime=%s",
		s.Completed, s.Throughput, s.P50, s.P99, s.QueueDepth,
		s.EffectiveBatch, s.Rejected, s.Canceled, s.Panics, s.Rebuilds,
		s.Uptime.Round(time.Millisecond))
}
