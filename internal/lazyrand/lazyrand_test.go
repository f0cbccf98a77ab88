package lazyrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// draw makes one call on r, chosen by op, and appends what it returned
// as bits. Every rand.Rand method a caller of this package uses is
// among the choices; Intn and Int63n take bounds from 1 to 2⁵⁵ so both
// the 31-bit and the 63-bit rejection loops run, and Perm shuffles 2 to
// 13 elements. Every call draws at least once.
func draw(r *rand.Rand, op byte, out []uint64) []uint64 {
	switch op % 7 {
	case 0:
		return append(out, uint64(r.Int63()))
	case 1:
		return append(out, r.Uint64())
	case 2:
		return append(out, math.Float64bits(r.Float64()))
	case 3:
		return append(out, math.Float64bits(r.NormFloat64()))
	case 4:
		return append(out, uint64(r.Intn(int(op)+1)))
	case 5:
		return append(out, uint64(r.Int63n((int64(op)+1)<<(op%48))))
	default:
		for _, v := range r.Perm(int(op%12) + 2) {
			out = append(out, uint64(v))
		}
		return out
	}
}

// sameStream runs ops on a math/rand stream and a lazyrand stream, both
// seeded with seed, reseeding both to reseeds[i].seed before call
// reseeds[i].at. It returns the first call at which the two differ (-1
// if none) with both results, and how many register draws each seeded
// stretch made.
func sameStream(seed int64, ops []byte, reseeds []reseed) (at int, want, got []uint64, draws []int) {
	src := &counted{Source: New(seed)}
	mr, lr := rand.New(rand.NewSource(seed)), rand.New(src)
	for k, op := range ops {
		for _, rs := range reseeds {
			if rs.at == k {
				draws = append(draws, src.n)
				mr.Seed(rs.seed)
				lr.Seed(rs.seed)
			}
		}
		want, got = draw(mr, op, want[:0]), draw(lr, op, got[:0])
		if !slices.Equal(want, got) {
			return k, want, got, append(draws, src.n)
		}
	}
	return -1, nil, nil, append(draws, src.n)
}

type reseed struct {
	at   int
	seed int64
}

// counted counts the register draws since the last Seed.
type counted struct {
	*Source
	n int
}

func (c *counted) Seed(seed int64) { c.n = 0; c.Source.Seed(seed) }
func (c *counted) Int63() int64    { c.n++; return c.Source.Int63() }
func (c *counted) Uint64() uint64  { c.n++; return c.Source.Uint64() }

// specialSeeds are the seeds at the edges of math/rand's normalization:
// 0 and the multiples of 2³¹−1 become 89482311, negative remainders
// wrap, and the int64 extremes must not overflow.
var specialSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 + 1, 2 * math.MaxInt32, 89482311 + math.MaxInt32,
	math.MinInt32, math.MinInt32 + 1, -math.MaxInt32,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// TestSourceMatchesMathRand is the differential against math/rand: for
// 318 seeds, 2 000 calls through every rand.Rand method with two
// reseeds. The first stretch, 1 200 calls, runs past draw 608: every
// word has been first read by then, feed's by draw 334 and tap's by
// draw 273. The reseed at call 1 200 starts the next seed's stream and
// the one at call 1 300 stops it while some words are still
// uncomputed, returning to the first seed for 700 calls, again past
// draw 608.
func TestSourceMatchesMathRand(t *testing.T) {
	ctl := rand.New(rand.NewSource(20200614))
	seeds := append([]int64(nil), specialSeeds...)
	for len(seeds) < 318 {
		seeds = append(seeds, int64(ctl.Uint64()))
	}
	ops := make([]byte, 2000)
	for i, seed := range seeds {
		ctl.Read(ops)
		next := seeds[(i+1)%len(seeds)]
		at, want, got, draws := sameStream(seed, ops, []reseed{{1200, next}, {1300, seed}})
		if at >= 0 {
			t.Fatalf("seed %d: call %d (op %d) returned %v, math/rand %v", seed, at, ops[at]%7, got, want)
		}
		if draws[0] <= 608 || draws[1] >= 334 || draws[2] <= 608 {
			t.Fatalf("seed %d: stretches drew %v times; the test needs >608, <334, >608", seed, draws)
		}
	}
}

// FuzzSourceMatchesMathRand is the differential with fuzzed seeds,
// calls and reseed points: 700 calls from seed (at least 700 draws, so
// past draw 608), then a reseed to seed2, then a reseed back to seed
// after at%700 more calls, then the rest of 1 400 calls.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, s := range specialSeeds {
		f.Add(s, int64(7), uint16(300), []byte{0, 1, 2, 3, 4, 5, 6})
	}
	f.Add(int64(42), int64(math.MinInt64), uint16(0), []byte{1})
	f.Add(int64(math.MaxInt64), int64(0), uint16(273), []byte{6, 13, 27})
	f.Fuzz(func(t *testing.T, seed, seed2 int64, at uint16, pattern []byte) {
		if len(pattern) == 0 {
			pattern = []byte{1}
		}
		ops := make([]byte, 1400)
		for k := range ops {
			ops[k] = pattern[k%len(pattern)] + byte(k/len(pattern))
		}
		reseeds := []reseed{{700, seed2}, {700 + int(at)%700, seed}}
		if k, want, got, _ := sameStream(seed, ops, reseeds); k >= 0 {
			t.Fatalf("seed %d, reseed %d at %d: call %d (op %d) returned %v, math/rand %v",
				seed, seed2, reseeds[1].at, k, ops[k]%7, got, want)
		}
	})
}

// BenchmarkSeedDraw8 is what a per-statement stream costs: seed, then
// 8 draws.
func BenchmarkSeedDraw8(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{{"mathrand", rand.NewSource(1)}, {"lazyrand", New(1)}} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(bc.src)
			var sink float64
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for range 8 {
					sink += r.Float64()
				}
			}
			_ = sink
		})
	}
}
