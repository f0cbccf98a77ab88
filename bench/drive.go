package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one finished operation. Times are nanoseconds since the
// loop began; an open-loop sample starts at the instant it was due.
type sample struct {
	start, end int64
	stmts      int32
	ok         bool
}

// snapshot is the process's counters at one end of a slice.
type snapshot struct {
	at      int64
	cpu     time.Duration // process user+sys, less the generator thread's own
	mallocs uint64
}

func takeSnapshot(at int64, genCPU time.Duration) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: at, cpu: processCPU() - genCPU, mallocs: ms.Mallocs}
}

// cut is one slice of a measured window: the process's counters where
// its load began and where it ended, and the yardstick's readings taken
// just before and just after it, with the load stopped.
type cut struct {
	from, to      snapshot
	before, after float64
}

// opFunc performs a client's n-th operation and reports how many
// statements it covered and whether every answer came back.
type opFunc func(n int) (stmts int, ok bool)

// closedLoop runs one goroutine per client, each sending its next
// operation when the previous one completes: a discarded warm-up burst
// and then one burst per slice. Between bursts every client has stopped
// and the harness reads the yardstick for probe, so every slice lies
// between two readings of the box's speed; a slice and the reading
// after it together take a tenth of the window. Client 0 ends a burst
// at its own first operation boundary past the burst's time and the
// others after the operation they are in, so a slice holds whole
// operations only: with operations as long as the train workload's,
// cutting by the clock alone would quantize throughput. It returns
// every sample and the slices' cuts.
func closedLoop(clients int, warm, window, probe time.Duration, ops func(client int) opFunc) ([]sample, []cut) {
	op := make([]opFunc, clients)
	done := make([]int, clients) // operations each client has performed
	perClient := make([][]sample, clients)
	for c := range op {
		op[c] = ops(c)
		// Room for 25 000 operations a second and client (twice what
		// the sizing box does), allocated up front: an append that
		// grows inside the window would count as the program's
		// allocation.
		perClient[c] = make([]sample, 0, int((warm+window).Seconds()*25_000)+1024)
	}
	t0 := time.Now()
	burst := func(d time.Duration) (from, to snapshot) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		from = takeSnapshot(int64(time.Since(t0)), 0)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for !stop.Load() {
					start := time.Since(t0)
					stmts, ok := op[c](done[c])
					end := time.Since(t0)
					done[c]++
					perClient[c] = append(perClient[c], sample{int64(start), int64(end), int32(stmts), ok})
					if c == 0 && end >= time.Duration(from.at)+d {
						stop.Store(true)
					}
				}
			}(c)
		}
		wg.Wait()
		return from, takeSnapshot(int64(time.Since(t0)), 0)
	}
	burst(warm)
	cuts := make([]cut, slices)
	before := yardstick(probe)
	for k := range cuts {
		from, to := burst(window/slices - probe)
		after := yardstick(probe)
		cuts[k] = cut{from, to, before, after}
		before = after
	}
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, cuts
}

// openResult is what the open loop adds to its samples.
type openResult struct {
	samples []sample // one per arrival, in schedule order
	lateNs  []int64  // how late the generator handed each arrival on
	cuts    []cut    // the window's slices, over all steps past the warm-up
}

// openLoop sends the schedule's arrivals when they are due, whether or
// not earlier ones have completed. One goroutine on a locked OS thread
// spins on the clock without yielding and hands arrival indices to a
// fixed pool of sender goroutines; it counts as one of the two
// threads. (time.Sleep below 1ms rounds up to 1ms whenever a thread is
// parked in netpoll, and a generator that yields with runtime.Gosched
// starves the netpoller; see README, Generator pitfalls.) At each of
// the schedule's probe instants, after which no arrival is due for a
// while, the generator stops spinning and reads the yardstick; the
// stretches between the readings are the window's slices.
// The generator takes the slices' counter snapshots and subtracts its
// own thread's CPU from them.
func openLoop(in *inputs, probe time.Duration, send func(sender, arrival int) bool) openResult {
	n := len(in.Arrivals)
	res := openResult{samples: make([]sample, n), lateNs: make([]int64, n), cuts: make([]cut, 0, len(in.Probes))}
	// Sized to the number of sends, so the generator never blocks and
	// a backlog grows here, where it is counted, not in the generator.
	queue := make(chan int, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range queue {
				ok := send(s, i)
				res.samples[i] = sample{in.Arrivals[i].DueNs, int64(time.Since(t0)), 1, ok}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		gen0 := threadCPU()
		// readProbe waits for the next probe instant, closes the slice
		// before it, reads the yardstick and opens the slice after it.
		readProbe := func() {
			at := in.Probes[len(res.cuts)]
			for int64(time.Since(t0)) < at {
			}
			to := takeSnapshot(at, threadCPU()-gen0)
			reading := yardstick(probe)
			if n := len(res.cuts); n > 0 {
				res.cuts[n-1].to, res.cuts[n-1].after = to, reading
			}
			res.cuts = append(res.cuts, cut{from: takeSnapshot(at+in.ProbeGapNs, threadCPU()-gen0), before: reading})
		}
		for i, a := range in.Arrivals {
			for len(res.cuts) < len(in.Probes) && in.Probes[len(res.cuts)] <= a.DueNs {
				readProbe()
			}
			for int64(time.Since(t0)) < a.DueNs {
			}
			res.lateNs[i] = int64(time.Since(t0)) - a.DueNs
			queue <- i
		}
		for len(res.cuts) < len(in.Probes) {
			readProbe()
		}
	}()
	wg.Wait()
	// The last probe closes the last slice and opens none.
	res.cuts = res.cuts[:max(len(res.cuts)-1, 0)]
	return res
}

// sliceStats is one slice of the measured window, as measured.
type sliceStats struct {
	Seconds       float64 `json:"seconds"`
	Ops           int     `json:"ops"`
	Failed        int     `json:"failed"`
	Stmts         int     `json:"stmts"`
	ThroughputPS  float64 `json:"throughput_per_s"`
	P50Us         float64 `json:"latency_p50_us"`
	P90Us         float64 `json:"latency_p90_us"`
	CPUUsPerStmt  float64 `json:"cpu_us_per_stmt"`
	AllocsPerStmt float64 `json:"allocs_per_stmt"`
	WithinSLO     int     `json:"within_slo"`
	// CalibNs is the mean of the yardstick's readings before and after
	// the slice: the box's speed while the slice ran.
	CalibNs float64 `json:"calib_ns"`
}

// cutSlices assigns each sample to the slice it ended in (closed loop)
// or was due in (open loop) and computes the slice's statistics.
// Samples outside every cut belong to the warm-up. slo is the latency
// limit at the reference box's speed: in a slice the box ran slower in,
// the limit is longer by as much.
func cutSlices(samples []sample, cuts []cut, byStart bool, slo time.Duration) []sliceStats {
	out := make([]sliceStats, len(cuts))
	lats := make([][]int64, len(out))
	for k, c := range cuts {
		out[k].CalibNs = (c.before + c.after) / 2
	}
	for _, s := range samples {
		// A closed-loop sample belongs to the burst it ended in; an
		// open-loop sample to the slice it was due in.
		var k int
		var in bool
		if byStart {
			k = sort.Search(len(cuts), func(i int) bool { return cuts[i].to.at > s.start })
			in = k < len(cuts) && s.start >= cuts[k].from.at
		} else {
			k = sort.Search(len(cuts), func(i int) bool { return cuts[i].to.at >= s.end })
			in = k < len(cuts) && s.end > cuts[k].from.at
		}
		if !in {
			continue
		}
		sl := &out[k]
		sl.Ops++
		if !s.ok {
			sl.Failed++
			continue
		}
		sl.Stmts += int(s.stmts)
		lat := s.end - s.start
		lats[k] = append(lats[k], lat)
		if float64(lat) <= float64(slo)*sl.CalibNs/calibRef {
			sl.WithinSLO++
		}
	}
	for k := range out {
		sl, c := &out[k], cuts[k]
		sl.Seconds = float64(c.to.at-c.from.at) / 1e9
		sl.ThroughputPS = float64(sl.Stmts) / sl.Seconds
		sort.Slice(lats[k], func(i, j int) bool { return lats[k][i] < lats[k][j] })
		sl.P50Us = percentile(lats[k], 0.50) / 1e3
		sl.P90Us = percentile(lats[k], 0.90) / 1e3
		if sl.Stmts > 0 {
			sl.CPUUsPerStmt = float64((c.to.cpu - c.from.cpu).Microseconds()) / float64(sl.Stmts)
			sl.AllocsPerStmt = float64(c.to.mallocs-c.from.mallocs) / float64(sl.Stmts)
		}
	}
	return out
}

// percentile reads the q-quantile of sorted values (nearest rank).
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(float64(len(sorted)-1)*q+0.5)])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// yardstick runs the harness's own fixed kernel — a 48×48×48 float64
// matrix product, cache-resident, no allocation, nothing of the
// program's — on procs goroutines for d and returns the nanoseconds
// one call took: the box's speed at that moment. The box slows by
// 10–60 % in episodes of seconds to minutes, and the kernel's readings
// follow them (correlation 0.93–0.99 with throughput over 15 s and
// more), so every slice and every set-up is timed between two readings
// and reported at the reference box's speed, calibRef. The issue's
// scalar loop on one core did not see the episodes: its readings stayed
// within 5 % while training time on both cores moved by 50 %.
func yardstick(d time.Duration) float64 {
	calls := make([]int, procs)
	var wg sync.WaitGroup
	for g := range calls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const n = 48
			var a, b, c [n * n]float64
			for i := range a {
				a[i], b[i] = float64(i%7)-3, float64(i%5)-2
			}
			for t0 := time.Now(); time.Since(t0) < d; calls[g]++ {
				for i := 0; i < n; i++ {
					for k := 0; k < n; k++ {
						aik := a[i*n+k]
						for j := 0; j < n; j++ {
							c[i*n+j] += aik * b[k*n+j]
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range calls {
		total += n
	}
	return float64(d.Nanoseconds()) * procs / float64(max(total, 1))
}
