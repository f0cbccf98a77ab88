// Package lazyrand is math/rand's source with an O(1) Seed. A Source
// yields exactly the stream rand.NewSource(seed) yields, for every seed
// and through every rand.Rand method, but Seed only records the seed:
// each of the 607 register words is computed the first time a draw
// reads it. math/rand's Seed runs 1 841 Park–Miller steps to fill the
// register, which dominates a stream that is seeded per item (one per
// simulated statement, session or training example) and then draws a
// handful of values.
//
// Use it through rand.New, so the distributions are math/rand's own.
// Streams seeded once gain nothing and should stay on rand.NewSource.
package lazyrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// powLen covers x(0)…x(23+3·606), the last Park–Miller value
	// math/rand's Seed computes.
	powLen = 21 + 3*rngLen
)

// pow[n] is 48271ⁿ mod (2³¹−1), so x(n) = pow[n]·x(0) mod (2³¹−1) is
// the n-th step of math/rand's seedrand from x(0) without the n−1
// steps before it.
var pow = func() (p [powLen]uint64) {
	p[0] = 1
	for n := 1; n < powLen; n++ {
		p[n] = p[n-1] * 48271 % int32max
	}
	return p
}()

// Source is math/rand's additive lagged Fibonacci generator
// (x[n] = x[n−607] + x[n−273]) with a lazily filled register. It
// implements rand.Source64 and, like math/rand's source, is not safe
// for concurrent use. The zero Source must be seeded before use.
type Source struct {
	tap, feed int
	x0        uint64 // the normalized seed: x(0) of the Park–Miller sequence
	lazy      bool   // feed has not yet passed word 0, so some words are not computed
	vec       [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the Source to the state rand.NewSource(seed) starts in.
// It computes no register word.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.lazy = true
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill computes the words this draw reads for the first time. Feed
// starts at word 334 and tap at word 0, both counting down, so draws
// 1…334 are the first to read feed's words 333…0 and draws 1…273 the
// first to read tap's words 606…334. Every later read of a word finds
// it stored: feed's own writes, and the tap words stored here, which
// feed reads again from draw 335 on.
func (s *Source) fill() {
	s.vec[s.feed] = s.word(s.feed)
	if s.tap >= rngLen-rngTap {
		s.vec[s.tap] = s.word(s.tap)
	}
	if s.feed == 0 {
		s.lazy = false
	}
}

// word returns register word i as math/rand's Seed computes it: three
// consecutive Park–Miller values, starting at x(21+3i), folded into 64
// bits and masked with rngCooked[i].
func (s *Source) word(i int) int64 {
	n := 21 + 3*i
	u := int64(pow[n]*s.x0%int32max) << 40
	u ^= int64(pow[n+1]*s.x0%int32max) << 20
	u ^= int64(pow[n+2] * s.x0 % int32max)
	return u ^ rngCooked[i]
}
