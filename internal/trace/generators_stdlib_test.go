package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// The oracles below are the generators as they were when they drew from
// math/rand: each is the generator's arithmetic over a *rand.Rand. The
// generators now draw from a concrete copy of math/rand's source, and
// these tests hold every stream to its oracle access for access.

func stdlibStream(region trace.Region, stride uint64, writeFrac float64, seed int64) func() trace.Access {
	rng := rand.New(rand.NewSource(seed))
	var pos uint64
	return func() trace.Access {
		blk := pos % region.Blocks()
		pos += stride
		return trace.Access{Addr: region.Base + blk*trace.BlockBytes, Write: rng.Float64() < writeFrac}
	}
}

func stdlibPointerChase(region trace.Region, writeFrac float64, seed int64) func() trace.Access {
	rng := rand.New(rand.NewSource(seed))
	return func() trace.Access {
		blk := uint64(rng.Int63n(int64(region.Blocks())))
		return trace.Access{Addr: region.Base + blk*trace.BlockBytes, Write: rng.Float64() < writeFrac}
	}
}

func stdlibChain(region trace.Region, writeFrac float64, seed int64) func() trace.Access {
	pow2 := uint64(1)
	for pow2*2 <= region.Blocks() {
		pow2 *= 2
	}
	rng := rand.New(rand.NewSource(seed))
	mult := uint64(rng.Int63())<<2 | 1
	if mult%4 != 1 {
		mult += 2
	}
	inc := uint64(rng.Int63())<<1 | 1
	var cur uint64
	return func() trace.Access {
		cur = (mult*cur + inc) & (pow2 - 1)
		return trace.Access{Addr: region.Base + cur*trace.BlockBytes, Write: rng.Float64() < writeFrac}
	}
}

func stdlibMixture(gens []func() trace.Access, weights []float64, seed int64) func() trace.Access {
	var sum, acc float64
	for _, w := range weights {
		sum += w
	}
	cum := make([]float64, len(weights))
	for i, w := range weights {
		acc += w / sum
		cum[i] = acc
	}
	rng := rand.New(rand.NewSource(seed))
	return func() trace.Access {
		u := rng.Float64()
		for i, c := range cum {
			if u <= c {
				return gens[i]()
			}
		}
		return gens[len(gens)-1]()
	}
}

// stdlibProfile composes the oracles the way workload.Profile.Generator
// composes the generators.
func stdlibProfile(p workload.Profile, seed int64) func() trace.Access {
	hotBlocks := trace.Region{Size: p.HotSetBytes}.Blocks()
	hot := stdlibZipf(hotBlocks, p.ZipfSkew, p.WriteFrac, seed)
	farRegion := trace.Region{Base: 1 << 40, Size: p.BigSetBytes}
	far := stdlibPointerChase(farRegion, p.WriteFrac, seed+1)
	if p.Big == workload.PatternStream {
		far = stdlibStream(farRegion, 1, p.WriteFrac, seed+1)
	}
	switch {
	case p.LLCFrac <= 0:
		return hot
	case p.LLCFrac >= 1:
		return far
	}
	return stdlibMixture([]func() trace.Access{hot, far}, []float64{1 - p.LLCFrac, p.LLCFrac}, seed+2)
}

// matchOracle checks n accesses of g against the oracle.
func matchOracle(t *testing.T, g trace.Generator, oracle func() trace.Access, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got, want := g.Next(), oracle(); got != want {
			t.Fatalf("access %d = %+v, the math/rand oracle gives %+v", i, got, want)
		}
	}
}

const oracleAccesses = 100_000

var oracleSeeds = []int64{1, 7, -3, 1<<31 + 5}

// TestGeneratorsMatchStdlib holds Stream, PointerChase (power-of-two and
// other block counts), Chain and Mixture to their math/rand oracles.
func TestGeneratorsMatchStdlib(t *testing.T) {
	for _, blocks := range []uint64{2, 384, 1024, 1 << 14, 6151} {
		region := trace.Region{Base: 1 << 30, Size: blocks * trace.BlockBytes}
		for _, seed := range oracleSeeds {
			t.Run(fmt.Sprintf("blocks=%d/seed=%d", blocks, seed), func(t *testing.T) {
				s, err := trace.NewStream(region, 3, 0.3, seed)
				if err != nil {
					t.Fatal(err)
				}
				matchOracle(t, s, stdlibStream(region, 3, 0.3, seed), oracleAccesses)
				p, err := trace.NewPointerChase(region, 0.2, seed)
				if err != nil {
					t.Fatal(err)
				}
				matchOracle(t, p, stdlibPointerChase(region, 0.2, seed), oracleAccesses)
				c, err := trace.NewChain(region, 0.4, seed)
				if err != nil {
					t.Fatal(err)
				}
				matchOracle(t, c, stdlibChain(region, 0.4, seed), oracleAccesses)

				gs := make([]trace.Generator, 3)
				if gs[0], err = trace.NewStream(region, 1, 0.1, seed+1); err != nil {
					t.Fatal(err)
				}
				if gs[1], err = trace.NewPointerChase(region, 0.5, seed+2); err != nil {
					t.Fatal(err)
				}
				if gs[2], err = trace.NewChain(region, 0.9, seed+3); err != nil {
					t.Fatal(err)
				}
				weights := []float64{0.5, 2, 1.5}
				m, err := trace.NewMixture(gs, weights, seed)
				if err != nil {
					t.Fatal(err)
				}
				oracle := stdlibMixture([]func() trace.Access{
					stdlibStream(region, 1, 0.1, seed+1),
					stdlibPointerChase(region, 0.5, seed+2),
					stdlibChain(region, 0.9, seed+3),
				}, weights, seed)
				matchOracle(t, m, oracle, oracleAccesses)
			})
		}
	}
}

// TestProfileGeneratorsMatchStdlib holds every workload profile's stand-in
// stream to the oracle composed from math/rand.
func TestProfileGeneratorsMatchStdlib(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			for _, seed := range oracleSeeds {
				g, err := p.Generator(seed)
				if err != nil {
					t.Fatal(err)
				}
				matchOracle(t, g, stdlibProfile(p, seed), oracleAccesses)
			}
		})
	}
}
