// Package prng provides a deterministic, splittable pseudo-random number
// generator used everywhere the simulator needs randomness.
//
// Reproducibility is a hard requirement of the experiment harness: a run is
// identified by (config, seed) and must produce bit-identical results on
// every run and across machines. The standard library's math/rand/v2 is not
// splittable in a way that lets us derive independent per-round,
// per-process streams from one master seed, so we implement xoshiro256**
// (Blackman & Vigna) seeded through SplitMix64, the construction
// recommended by its authors.
package prng

import "math"

// Source is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; derive one Source per goroutine with Split or Derive.
//
// The zero value is not directly usable; construct Sources with New, Split,
// or Derive so the state is properly mixed.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used to expand seeds into well-distributed xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given master seed. Distinct seeds
// yield independent streams.
func New(seed uint64) *Source {
	var s Source
	s.reseed(seed)
	return &s
}

func (s *Source) reseed(seed uint64) {
	sm := seed
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
	// xoshiro256** is only degenerate on the all-zero state, which
	// SplitMix64 cannot produce from four consecutive outputs, but guard
	// anyway so the invariant is local and obvious.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Derive returns a new Source whose stream is a deterministic function of
// this Source's *identity path* and the given labels, without consuming any
// output from the parent. It is the primitive behind per-(round, process)
// streams: every caller that passes the same labels sees the same
// sub-stream, regardless of scheduling.
func (s *Source) Derive(labels ...uint64) *Source {
	var child Source
	s.DeriveInto(&child, labels...)
	return &child
}

// DeriveInto is Derive without the allocation: it overwrites dst with the
// derived child state. The simulation engine reuses one scratch Source for
// the adversary view's per-phase streams, which this makes free. The
// derived stream is identical to Derive's for the same labels.
func (s *Source) DeriveInto(dst *Source, labels ...uint64) {
	// Hash the current state together with the labels through SplitMix64.
	// The parent state is read but not advanced.
	h := s.s0 ^ rotl(s.s1, 13) ^ rotl(s.s2, 29) ^ rotl(s.s3, 47)
	for _, l := range labels {
		h ^= l + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitmix64(&h)
	}
	dst.reseed(h)
}

// Split consumes one output from the parent and returns an independent
// child Source. Use Derive when the parent must not be advanced.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits -> [0,1) with full double precision, the standard
	// construction from the xoshiro reference implementation.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi). It requires lo <= hi; if
// lo == hi it returns lo.
func (s *Source) Range(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0, n). n must be > 0; Intn returns 0 for
// n <= 0 rather than panicking, because adversary code paths feed it sizes
// derived from configuration and a zero-size draw is a no-op there.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	// Lemire's nearly-divisionless bounded draw (without the rejection
	// refinement; bias is < 2^-32 for the n used in simulations, which is
	// irrelevant for workload generation but we document it).
	hi, _ := mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices using swap, Fisher-Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the polar Box-Muller method. One of the pair is
// discarded to keep the Source stateless beyond its core state.
func (s *Source) Norm(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
