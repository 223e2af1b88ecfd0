package stats

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds returns the edge seeds of math/rand's seed reduction (zero,
// the modulus 2³¹−1 and its multiples, the int64 extremes, the value zero
// is replaced by) plus n seeds spread over the whole int64 range.
func sourceSeeds(n int) []int64 {
	const p = int32max
	seeds := []int64{
		0, 1, -1, 2, -2, p, -p, p - 1, -(p - 1), p + 1, -(p + 1),
		2 * p, -2 * p, 3 * p, 1 << 30 * p, -(1 << 30) * p,
		math.MaxInt64 / p * p, math.MinInt64 / p * p,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, 89482311, -89482311,
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(splitmix64(uint64(i))))
	}
	return seeds
}

// matchDraws compares n draws from got against want, cycling through
// every rand.Rand method the simulator's packages use, so each one reads
// the source the way it does in production.
func matchDraws(t testing.TB, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 7 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 4:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 5:
			// Spans Int31n's power-of-two, rejection and Int63n paths.
			m := []int{1, 2, 7, 1000, 1 << 30, math.MaxInt/3 + 1, math.MaxInt - 5}[i/7%7]
			g, w = got.Intn(m), want.Intn(m)
		case 6:
			gp, wp := got.Perm(i%13), want.Perm(i%13)
			for k := range wp {
				if gp[k] != wp[k] {
					t.Fatalf("seed %d draw %d: Perm = %v, want %v", seed, i, gp, wp)
				}
			}
			continue
		}
		if g != w {
			t.Fatalf("seed %d draw %d (method %d): got %v, want %v", seed, i, i%7, g, w)
		}
	}
}

func newSourceRand(seed int64) *rand.Rand {
	src := new(source)
	src.Seed(seed)
	return rand.New(src)
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds(2000) {
		matchDraws(t, seed, newSourceRand(seed), rand.New(rand.NewSource(seed)), 2000)
	}
}

// Reseed after arbitrary draws, with Read's byte buffer half consumed,
// must land exactly on a fresh NewRNG's state.
func TestSourceReseedAfterDraws(t *testing.T) {
	r := NewRNG(7, 3)
	for i, seed := range sourceSeeds(300) {
		stream := uint64(i) * 0x9e37
		for k := 0; k < i%1500; k++ {
			r.Uint64()
		}
		var junk [3]byte
		r.Read(junk[:]) // leaves Read's buffered bytes behind
		Reseed(r, seed, stream)
		fresh := NewRNG(seed, stream)
		var a, b [13]byte
		r.Read(a[:])
		fresh.Read(b[:])
		if !bytes.Equal(a[:], b[:]) {
			t.Fatalf("seed %d: Read after Reseed = %x, fresh NewRNG = %x", seed, a, b)
		}
		matchDraws(t, seed, r, fresh, 700)
		// And a fresh NewRNG is math/rand's stream for the mixed seed.
		want := rand.New(rand.NewSource(seed ^ int64(splitmix64(stream))))
		matchDraws(t, seed, NewRNG(seed, stream), want, 700)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds(4) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		matchDraws(t, seed, newSourceRand(seed), rand.New(rand.NewSource(seed)), 1300)
	})
}

// BenchmarkReseed prices one per-client reseed in trace.Generate against
// math/rand's own Seed on the same generator shape.
func BenchmarkReseed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		r := NewRNG(1, 0)
		for i := 0; i < b.N; i++ {
			Reseed(r, 1, uint64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(1 ^ int64(splitmix64(uint64(i))))
		}
	})
}
