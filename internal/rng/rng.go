// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository.
//
// Every experiment in this repository is seeded, so results are exactly
// reproducible across runs and machines. The generator is a SplitMix64
// core (Steele, Lea & Flood, OOPSLA 2014) wrapped with convenience
// samplers. SplitMix64 passes BigCrush, has a full 2^64 period, and —
// crucially for parameter sweeps — supports cheap independent substreams
// derived from a parent stream.
package rng

import "math"

// golden is the 64-bit golden ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// Source is a deterministic random source. The zero value is a valid
// generator seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent substream from s. The parent stream
// advances by one step; the child is seeded from that output. Substreams
// let each trial of an experiment own its private generator so that
// adding trials never perturbs earlier ones.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits -> [0,1) with full double precision.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		//mdglint:ignore nopanic mirrors math/rand.Intn's documented contract
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Norm returns a standard normal variate (Box–Muller, polar form).
func (s *Source) Norm() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// NormMeanStd returns a normal variate with the given mean and standard
// deviation.
func (s *Source) NormMeanStd(mean, std float64) float64 {
	return mean + std*s.Norm()
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher–Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}
