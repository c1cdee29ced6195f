// Package workload provides deterministic workload synthesis shared by
// the application studies: seeded random sources, Zipf-distributed
// access patterns (the "skewed access pattern" of §4.1) — a sampler and
// its analytical weights — and a seeded shuffle.
package workload

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic random source for the given seed.
// All experiments derive their randomness from explicit seeds so every
// table and figure is exactly reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf draws ranks in [0, n) with P(rank=k) proportional to
// 1/(k+1)^s. It wraps math/rand's Zipf with the conventional
// parameterization used in IP-lookup performance modeling (Narlikar and
// Zane use a comparable skew).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 1 being
// more skewed as s grows; s is clamped to a minimum of 1.01 because the
// underlying sampler requires s > 1.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if s < 1.01 {
		s = 1.01
	}
	if n < 1 {
		n = 1
	}
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Rank draws one rank.
func (z *Zipf) Rank() int { return int(z.z.Uint64()) }

// Weights returns normalized access probabilities for n ranks under a
// 1/(k+1)^s law — the analytical counterpart of the sampler, used when
// an experiment wants exact expected values instead of sampling noise.
func Weights(s float64, n int) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		w[k] = 1 / math.Pow(float64(k+1), s)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// Shuffle permutes xs deterministically under rng.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
