// Package num holds the tiny numeric helpers shared by the
// physical-design kernels. Before it existed, clamp/min/max were
// re-implemented per file in internal/place, internal/route and
// internal/power; min and max themselves are Go builtins since 1.21, so
// only the compositions live here.
package num

import (
	"cmp"
	"math/bits"
)

// Clamp limits x to [lo, hi]. lo must not exceed hi.
func Clamp[T cmp.Ordered](x, lo, hi T) T {
	return min(max(x, lo), hi)
}

// Mix derives a decorrelated child seed from a parent seed and a stream
// index (one splitmix64 step — the same construction flow.subSeed uses
// for per-stage seeds): Seed identifies the run, stream the use (a stage,
// the anneal, a retry attempt), and the result never collides across
// neighbouring streams the way seed+stream arithmetic does.
func Mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SplitMix is a splitmix64 rand.Source64. Unlike rand.NewSource —
// whose additive-lagged-Fibonacci state costs a 607-word initialisation
// per source — a SplitMix is two words and free to construct, which
// matters when a kernel seeds one independent stream per net or per
// move. The sequence is a pure function of the seed on every platform.
type SplitMix struct{ state uint64 }

// NewSplitMix returns a source whose stream is determined by seed.
func NewSplitMix(seed int64) *SplitMix { return &SplitMix{state: uint64(seed)} }

// Uint64 advances the state by the golden-gamma and mixes it (the
// same finalizer Mix uses).
func (s *SplitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a draw from [0, n), n > 0, by multiply-shift: the high word
// of a 64-bit draw times n. No division and no rejection loop; the bias is
// below n / 2^64.
func (s *SplitMix) Intn(n int) int {
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a draw from [0, 1): the top 53 bits of a 64-bit draw.
func (s *SplitMix) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Int63 satisfies rand.Source.
func (s *SplitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed satisfies rand.Source.
func (s *SplitMix) Seed(seed int64) { s.state = uint64(seed) }
