package serve

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// latBuckets is the number of latency histogram buckets: eight
// log-linear buckets per power of two of nanoseconds, values below 16
// ns one bucket each, the last ending at 2⁶³-1.
const latBuckets = 488

// statsState is the predictor's observability state: atomic counters,
// one of them per latency bucket, so recording a request is one atomic
// add and a snapshot takes no lock.
type statsState struct {
	completed atomic.Uint64
	widthSum  atomic.Uint64 // sum over completed predictions of their forward pass's width
	rejected  atomic.Uint64 // AdmitReject refusals (ErrQueueFull)
	canceled  atomic.Uint64 // requests that gave up waiting for a replica (ctx expiry)
	panics    atomic.Uint64 // statements whose inference panicked
	rebuilds  atomic.Uint64 // replicas retired and rebuilt after panicLimit

	lat [latBuckets]atomic.Uint64 // requests served, by latBucket of their latency
}

// latBucket is the histogram bucket of a latency of ns nanoseconds:
// the bucket index's high bits are the power of two, its low three
// bits the next three bits of ns below the leading one.
func latBucket(ns uint64) int {
	s := bits.Len64(ns|8) - 4
	return 8*s + int(ns>>s)
}

// latUpper is the largest latency, in nanoseconds, that bucket b holds.
func latUpper(b int) uint64 {
	s := max(b/8-1, 0)
	return uint64(b-8*s+1)<<s - 1
}

// latRank is the upper bound of the bucket holding the nearest-rank
// q-th percentile, rank (n-1)*q/100 from 0, of the n latencies counted
// in h.
func latRank(h *[latBuckets]uint64, n, q uint64) time.Duration {
	if n == 0 {
		return 0
	}
	rank, seen := (n-1)*q/100, uint64(0)
	for b, c := range h {
		if seen += c; seen > rank {
			return time.Duration(latUpper(b))
		}
	}
	return 0
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
	// wait for a replica included; one count per request whatever its
	// width) over every request since NewPredictor. Each is the upper
	// bound of the histogram bucket holding the nearest-rank percentile:
	// never below the true value, at most 12.5% above it, exact below
	// 16 ns.
	P50, P99 time.Duration
	// EffectiveBatch is the mean, over completed predictions, of how
	// many statements shared their forward pass: the callers' own batch
	// sizes (capped at MaxBatch), 1.0 when every call was a single
	// statement.
	EffectiveBatch float64
}

// Stats snapshots the predictor's service metrics. Safe to call
// concurrently with predictions and after Close; it takes no lock and
// allocates nothing.
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
	var h [latBuckets]uint64
	var n uint64
	for b := range h {
		h[b] = p.stats.lat[b].Load()
		n += h[b]
	}
	s.P50, s.P99 = latRank(&h, n, 50), latRank(&h, n, 99)
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
