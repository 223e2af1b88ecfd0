package stats

import (
	"math"
	"math/rand"
)

// NewRNG returns a deterministic PRNG for the given experiment seed and
// stream label. Distinct labels give independent streams, so a simulation
// can hand sub-seeds to its components without coupling their draws.
// The draws are those of rand.New(rand.NewSource(seed ^ splitmix64(stream))):
// the generator runs on source, an exact replica of math/rand's source
// whose seeding is cheap enough to redo per trace client.
func NewRNG(seed int64, stream uint64) *rand.Rand {
	src := new(source)
	src.Seed(seed ^ int64(splitmix64(stream)))
	return rand.New(src)
}

// Reseed re-seeds r in place to the exact state a fresh
// NewRNG(seed, stream) would start from, without allocating a new
// generator. Hot loops that previously built one RNG per element (the
// trace generator builds one per client) can instead reuse a single
// generator: the draw sequences are bit-identical either way.
func Reseed(r *rand.Rand, seed int64, stream uint64) {
	r.Seed(seed ^ int64(splitmix64(stream)))
}

// splitmix64 is the standard 64-bit mixing function; it decorrelates the
// stream label from the base seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Pareto draws from a bounded Pareto distribution with shape alpha and
// range [lo, hi]. Used for heavy-tailed flow sizes.
func Pareto(r *rand.Rand, alpha, lo, hi float64) float64 {
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Lognormal draws from a lognormal distribution with the given parameters of
// the underlying normal.
func Lognormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Exp draws an exponential with the given mean.
func Exp(r *rand.Rand, mean float64) float64 {
	return r.ExpFloat64() * mean
}

// WeightedChoice picks index i with probability weights[i]/sum(weights).
// All weights must be non-negative; if they sum to zero the choice is
// uniform. It returns -1 for an empty slice.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	if len(weights) == 0 {
		return -1
	}
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * sum
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
