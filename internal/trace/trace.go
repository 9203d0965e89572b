// Package trace generates synthetic memory-access traces that stand in for
// the Sniper-simulated SPEC CPU2017 traces of the paper. Each generator
// produces a deterministic, seeded stream of block-granular reads and
// writes with controlled locality so that the cache hierarchy (internal/sim)
// experiences realistic hit/miss behaviour across the full range of LLC
// traffic intensities the paper studies (1e3–2e8 accesses/s).
package trace

import (
	"fmt"
	"math/rand"
)

// BlockBytes is the address granularity of generated accesses (one cache
// line).
const BlockBytes = 64

// Access is one memory reference.
type Access struct {
	// Addr is the byte address (block aligned).
	Addr uint64
	// Write marks store traffic.
	Write bool
}

// Generator produces an infinite access stream.
type Generator interface {
	// Next returns the next access in the stream.
	Next() Access
}

// Region is a contiguous address range accesses fall in.
type Region struct {
	// Base is the starting byte address.
	Base uint64
	// Size is the region length in bytes.
	Size uint64
}

// Blocks returns the number of cache blocks the region spans.
func (r Region) Blocks() uint64 {
	if r.Size == 0 {
		return 0
	}
	return (r.Size + BlockBytes - 1) / BlockBytes
}

// Validate reports sizing errors.
func (r Region) Validate() error {
	if r.Size < BlockBytes {
		return fmt.Errorf("trace: region size %d smaller than one block", r.Size)
	}
	return nil
}

// Stream walks the region sequentially with a fixed stride, wrapping at the
// end — the classic scan pattern of lbm/bwaves-style kernels. Its large
// working sets defeat caches entirely, producing maximal LLC traffic.
type Stream struct {
	region    Region
	strideBlk uint64
	writeFrac float64
	pos       uint64
	rng       *rand.Rand
}

// NewStream creates a sequential scanner. strideBlocks is the step in
// blocks (>= 1); writeFrac in [0,1] is the store fraction.
func NewStream(region Region, strideBlocks uint64, writeFrac float64, seed int64) (*Stream, error) {
	if err := region.Validate(); err != nil {
		return nil, err
	}
	if strideBlocks == 0 {
		return nil, fmt.Errorf("trace: stride must be >= 1 block")
	}
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: write fraction %g out of [0,1]", writeFrac)
	}
	return &Stream{
		region:    region,
		strideBlk: strideBlocks,
		writeFrac: writeFrac,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Next implements Generator.
func (s *Stream) Next() Access {
	blk := s.pos % s.region.Blocks()
	s.pos += s.strideBlk
	return Access{
		Addr:  s.region.Base + blk*BlockBytes,
		Write: s.rng.Float64() < s.writeFrac,
	}
}

// Zipf draws block indices from a Zipf distribution over the region: a hot
// head that caches absorb and a heavy tail that leaks through — the shape
// of pointer-rich integer codes (gcc, xalancbmk). Its ranks are exactly
// the ones math/rand.Zipf would draw from the same seed.
type Zipf struct {
	region    Region
	writeFrac float64
	rng       *rand.Rand
	zipf      *zipfSampler
}

// NewZipf creates a Zipf-distributed generator; s > 1 controls skew (larger
// means hotter head).
func NewZipf(region Region, s, writeFrac float64, seed int64) (*Zipf, error) {
	if err := region.Validate(); err != nil {
		return nil, err
	}
	if s <= 1 {
		return nil, fmt.Errorf("trace: zipf skew must be > 1, got %g", s)
	}
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: write fraction %g out of [0,1]", writeFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{
		region:    region,
		writeFrac: writeFrac,
		rng:       rng,
		zipf:      newZipfSampler(rng, s, 1, region.Blocks()-1),
	}, nil
}

// Next implements Generator.
func (z *Zipf) Next() Access {
	blk := z.zipf.Uint64()
	// Scatter the rank ordering across the region so hot blocks do not
	// sit in consecutive sets.
	blk = (blk * 0x9E3779B97F4A7C15) % z.region.Blocks()
	return Access{
		Addr:  z.region.Base + blk*BlockBytes,
		Write: z.rng.Float64() < z.writeFrac,
	}
}

// PointerChase jumps uniformly at random through the region, modeling
// dependent pointer dereferences over a large graph (mcf, omnetpp): almost
// every access misses caches smaller than the region.
type PointerChase struct {
	region    Region
	writeFrac float64
	rng       *rand.Rand
}

// NewPointerChase creates a uniform random-walk generator.
func NewPointerChase(region Region, writeFrac float64, seed int64) (*PointerChase, error) {
	if err := region.Validate(); err != nil {
		return nil, err
	}
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: write fraction %g out of [0,1]", writeFrac)
	}
	return &PointerChase{region: region, writeFrac: writeFrac, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next implements Generator.
func (p *PointerChase) Next() Access {
	blk := uint64(p.rng.Int63n(int64(p.region.Blocks())))
	return Access{
		Addr:  p.region.Base + blk*BlockBytes,
		Write: p.rng.Float64() < p.writeFrac,
	}
}

// Mixture interleaves several generators with fixed probabilities,
// composing compute phases (hot loops) with memory phases (scans, chases).
type Mixture struct {
	gens    []Generator
	weights []float64
	rng     *rand.Rand
}

// NewMixture combines generators; weights need not be normalized but must
// be positive and match gens in length.
func NewMixture(gens []Generator, weights []float64, seed int64) (*Mixture, error) {
	if len(gens) == 0 || len(gens) != len(weights) {
		return nil, fmt.Errorf("trace: mixture needs matching gens (%d) and weights (%d)", len(gens), len(weights))
	}
	var sum float64
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("trace: mixture weights must be positive")
		}
		sum += w
	}
	norm := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		norm[i] = acc
	}
	return &Mixture{gens: gens, weights: norm, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next implements Generator.
func (m *Mixture) Next() Access {
	u := m.rng.Float64()
	for i, cum := range m.weights {
		if u <= cum {
			return m.gens[i].Next()
		}
	}
	return m.gens[len(m.gens)-1].Next()
}

// Collect drains n accesses from a generator into a slice (a helper the
// tests share).
func Collect(g Generator, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Chain is a true dependent pointer chase: each access determines the next
// through a full-period linear-congruential walk over the region's blocks,
// so no two accesses can overlap in a real machine — the classic
// latency-measurement microbenchmark. The region's block count is rounded
// down to a power of two (required for the full-period walk).
type Chain struct {
	region    Region
	mask      uint64
	mult, inc uint64
	cur       uint64
	writeFrac float64
	rng       *rand.Rand
}

// NewChain builds the dependent walk; the region must span at least two
// blocks.
func NewChain(region Region, writeFrac float64, seed int64) (*Chain, error) {
	if err := region.Validate(); err != nil {
		return nil, err
	}
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: write fraction %g out of [0,1]", writeFrac)
	}
	blocks := region.Blocks()
	pow2 := uint64(1)
	for pow2*2 <= blocks {
		pow2 *= 2
	}
	if pow2 < 2 {
		return nil, fmt.Errorf("trace: chain needs at least two blocks")
	}
	rng := rand.New(rand.NewSource(seed))
	// Full period over 2^k requires inc odd and mult = 1 (mod 4).
	mult := uint64(rng.Int63())<<2 | 1
	if mult%4 != 1 {
		mult += 2
	}
	inc := uint64(rng.Int63())<<1 | 1
	return &Chain{
		region:    region,
		mask:      pow2 - 1,
		mult:      mult,
		inc:       inc,
		writeFrac: writeFrac,
		rng:       rng,
	}, nil
}

// Next implements Generator: the address depends on the previous one.
func (c *Chain) Next() Access {
	c.cur = (c.mult*c.cur + c.inc) & c.mask
	return Access{
		Addr:  c.region.Base + c.cur*BlockBytes,
		Write: c.rng.Float64() < c.writeFrac,
	}
}
