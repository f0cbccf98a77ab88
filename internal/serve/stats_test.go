package serve

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// latEdges are the latencies where the bucket layout changes shape:
// the last exact buckets, the first log-linear one, and the largest
// duration.
var latEdges = []uint64{0, 7, 8, 15, 16, math.MaxInt64}

// TestLatBucketBounds checks the bucket layout exactly: every latency
// lands in an existing bucket, the buckets tile the line without gaps
// or overlaps, and a bucket's upper bound is at most 1/8 above any
// latency it holds.
func TestLatBucketBounds(t *testing.T) {
	check := func(ns uint64) {
		b := latBucket(ns)
		if b < 0 || b >= latBuckets {
			t.Fatalf("latBucket(%d) = %d, outside [0, %d)", ns, b, latBuckets)
		}
		if up := latUpper(b); ns > up || up-ns > ns/8 {
			t.Fatalf("ns %d: bucket %d upper bound %d", ns, b, up)
		}
		if b > 0 && latUpper(b-1) >= ns {
			t.Fatalf("ns %d: bucket %d, but bucket %d ends at %d", ns, b, b-1, latUpper(b-1))
		}
	}
	for ns := uint64(0); ns < 1<<16; ns++ {
		check(ns)
	}
	rng := rand.New(rand.NewSource(31))
	for range 100000 {
		check(uint64(rng.Int63()) >> rng.Intn(63))
	}
	for _, ns := range latEdges {
		check(ns)
	}
}

// TestStatsPercentilesMatchSorted records a seeded latency set into the
// histogram and checks P50 and P99 against the nearest-rank rule on the
// sorted samples: the reported value is exactly the upper bound of the
// bucket holding sorted[(n-1)*q/100].
func TestStatsPercentilesMatchSorted(t *testing.T) {
	p := &Predictor{start: time.Now()}
	if s := p.Stats(); s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("empty histogram: p50=%v p99=%v", s.P50, s.P99)
	}
	rng := rand.New(rand.NewSource(7))
	lat := slices.Clone(latEdges)
	for range 5000 {
		// Around 50 µs, spread over four orders of magnitude.
		lat = append(lat, uint64(math.Exp(math.Log(50e3)+1.5*rng.NormFloat64())))
	}
	rng.Shuffle(len(lat), func(i, j int) { lat[i], lat[j] = lat[j], lat[i] })
	for i, ns := range lat {
		p.stats.lat[latBucket(ns)].Add(1)
		n := i + 1
		if n > 20 && n%500 != 0 && n != len(lat) {
			continue
		}
		sorted := slices.Sorted(slices.Values(lat[:n]))
		s := p.Stats()
		for q, got := range map[int]time.Duration{50: s.P50, 99: s.P99} {
			want := time.Duration(latUpper(latBucket(sorted[(n-1)*q/100])))
			if got != want {
				t.Fatalf("n=%d: p%d = %d, want %d", n, q, got, want)
			}
		}
	}
}

// TestStatsAllocFree checks a snapshot allocates nothing, however many
// requests the histogram has counted.
func TestStatsAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := &Predictor{start: time.Now()}
	for ns := uint64(1); ns < 1<<40; ns *= 3 {
		p.stats.lat[latBucket(ns)].Add(1)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocs/op = %v, want 0", allocs)
	}
}

// TestStatsConcurrentHistogram runs predictions on every replica while
// another goroutine snapshots Stats in a loop: each request counts in
// the histogram exactly once.
func TestStatsConcurrentHistogram(t *testing.T) {
	m, err := core.Train("mfreq", core.ErrorClassification, testData().Train, core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const callers, calls = 4, 300
	p := NewPredictor(m, Options{Replicas: 2})
	defer p.Close()
	stmts := testStatements(calls)
	done, snapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-done:
				return
			default:
			}
			if s := p.Stats(); s.P99 < s.P50 {
				t.Errorf("p99 %v below p50 %v", s.P99, s.P50)
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 0, 8)
			for i := range calls {
				var err error
				if dst, err = p.ProbsIntoCtx(context.Background(), stmts[(c+i)%len(stmts)], dst); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-snapped
	if got := requestsServed(p); got != callers*calls {
		t.Fatalf("histogram counts %d requests, want %d", got, callers*calls)
	}
	if s := p.Stats(); s.Completed != callers*calls || s.P50 <= 0 {
		t.Fatalf("after the load: completed=%d p50=%v", s.Completed, s.P50)
	}
}
