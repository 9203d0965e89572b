package trace

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers the seeds math/rand treats specially: 0 (replaced by
// a fixed seed), negatives, and values at and past 2^31-1, which it
// reduces modulo 2^31-1.
var sourceSeeds = []int64{
	0, 1, -1, -7, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<40 + 3, math.MinInt64, math.MaxInt64,
}

// int63nBounds are Int63n arguments on both of its paths: powers of two,
// which mask, and the rest, which reject the top of the range.
var int63nBounds = []int64{1, 2, 1 << 10, 1 << 31, 1 << 62, 384, 1<<40 + 7}

// matchSource draws n values of every method from rng and from the
// math/rand oracle, in blocks, and fails at the first difference.
func matchSource(t *testing.T, seed int64, n int) {
	t.Helper()
	rng := newRNGSource(seed)
	std := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := rng.Int63(), std.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		if g, w := rng.Uint64(), std.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		if g, w := rng.Float64(), std.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %g, math/rand gives %g", seed, i, g, w)
		}
	}
	for i := 0; i < n; i++ {
		b := int63nBounds[i%len(int63nBounds)]
		if g, w := rng.Int63n(b), std.Int63n(b); g != w {
			t.Fatalf("seed %d: Int63n(%d) draw %d = %d, math/rand gives %d", seed, b, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand holds the copied source to math/rand draw for
// draw: a million of each method per seed, then the two branches random
// seeds almost never reach, aimed at directly: a Float64 draw that rounds
// up to 1 and resamples, and an Int63n draw past its rejection bound.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		matchSource(t, seed, 1_000_000)
	}
	for _, tc := range []struct {
		name string
		draw func(*rngSource) int64
		std  func(*rand.Rand) int64
	}{
		{"Float64", func(r *rngSource) int64 { return int64(math.Float64bits(r.Float64())) },
			func(r *rand.Rand) int64 { return int64(math.Float64bits(r.Float64())) }},
		{"Int63n", func(r *rngSource) int64 { return r.Int63n(384) },
			func(r *rand.Rand) int64 { return r.Int63n(384) }},
	} {
		rng := newRNGSource(3)
		aim(rng, math.MaxInt64)
		before, mirror := *rng, *rng
		if g, w := tc.draw(rng), tc.std(rand.New(&mirror)); g != w || *rng != mirror {
			t.Fatalf("%s at the top of the range: %d after %d draws, math/rand gives %d after %d",
				tc.name, g, drawsBetween(&before, rng), w, drawsBetween(&before, &mirror))
		}
		if n := drawsBetween(&before, rng); n != 2 {
			t.Fatalf("%s at the top of the range took %d draws, want a redraw (2)", tc.name, n)
		}
	}
}

// FuzzSourceMatchesStdlib holds the copied source to math/rand over any
// seed and any interleaving of its methods.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(1), int64(384), []byte{0, 1, 2, 3})
	f.Add(int64(0), int64(1), []byte{3, 3, 2})
	f.Add(int64(math.MinInt64), int64(1<<40+7), []byte{1, 0, 3, 2, 2})
	f.Add(int64(1<<31-1), int64(1<<62), []byte{2})
	f.Fuzz(func(t *testing.T, seed, n int64, ops []byte) {
		if n <= 0 {
			n = 384
		}
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		rng := newRNGSource(seed)
		std := rand.New(rand.NewSource(seed))
		for i, op := range ops {
			var g, w uint64
			switch op % 4 {
			case 0:
				g, w = uint64(rng.Int63()), uint64(std.Int63())
			case 1:
				g, w = rng.Uint64(), std.Uint64()
			case 2:
				g, w = math.Float64bits(rng.Float64()), math.Float64bits(std.Float64())
			case 3:
				g, w = uint64(rng.Int63n(n)), uint64(std.Int63n(n))
			}
			if g != w {
				t.Fatalf("seed %d: op %d (%d) = %#x, math/rand gives %#x", seed, i, op%4, g, w)
			}
		}
		matchSource(t, seed, 1000)
	})
}
