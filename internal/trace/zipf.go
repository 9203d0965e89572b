package trace

import (
	"context"
	"fmt"
	"math"
	"sort"

	"coldtall/internal/cache"
)

// zipfSampler draws exactly the value stream math/rand.Zipf would draw from
// a *rand.Rand over the same source, one Float64 per attempt, but resolves
// most attempts with a table lookup instead of Hörmann and Derflinger's
// rejection-inversion (an exp and a log per attempt). It pairs its own
// source with a table shared by every sampler of the same parameters.
type zipfSampler struct {
	r *rngSource
	*zipfTable
}

// zipfTable is a sampler's read-only part, a pure function of (s, v, imax).
//
// Given the uniform draw r, the stdlib's attempt either accepts a rank k or
// rejects, and that outcome is a step function of r: it changes only where
// the inverted point x crosses a bin edge k±0.5 or rank k's acceptance edge
// (the squeeze k-s, or the hat test ur >= h(k+0.5) - (k+v)^-q). The table
// stores the outcome between those breaks for the head ranks k < zipfHead.
// A draw within the guard band of a break, or below the head (the tail),
// runs the exact attempt, a copy of the stdlib's arithmetic, so the few
// ulps of rounding in exp and log can never flip an outcome.
type zipfTable struct {
	// The stdlib's constants, computed exactly as rand.NewZipf does.
	imax, v, q, s           float64
	oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm        float64
	// edges[i] is the lowest r of segment i, ascending from 0; the last
	// entry is a sentinel 1 that no draw reaches. out[i] is segment i's
	// outcome: a rank, zipfReject or zipfExact.
	edges []float64
	out   []int16
	// guide[b] is the segment holding r = b/zipfGuide, so a lookup scans
	// only the segments that start inside its draw's bucket.
	guide [zipfGuide]uint16
}

const (
	// zipfHead is the number of head ranks the table resolves. Deeper
	// bins are so narrow that their guard bands take a growing share of
	// them, and they carry little of the mass at the profiles' skews.
	zipfHead = 1024
	// zipfGuide is the number of guide buckets over [0, 1).
	zipfGuide = 4096
	// zipfBand is the guard band, in r, around every break. Rounding
	// moves a computed break, and the stdlib's computed ur, by a few ulps
	// of h; the band is orders of magnitude wider.
	zipfBand = 1e-9
)

// Segment outcomes other than an accepted rank.
const (
	zipfReject int16 = -1 // the attempt rejects: draw again
	zipfExact  int16 = -2 // near a break or in the tail: run the exact attempt
)

// zipfTableLimit bounds zipfTables. The built-in profiles need 13 tables
// (distinct hot-set sizes and skews); ingest generator specs and
// distillation candidates bring arbitrary skews, and past the bound the
// least-recently-used table is evicted. A table for a head of 1024 ranks
// is about 50 KB.
const zipfTableLimit = 64

// zipfTables holds one table per (s, v, imax) for the process, so the
// samplers of repeated generator builds (every profile stand-in, each
// signature fold and miss replay) pay one build between them.
var zipfTables = cache.MustNew[*zipfTable](zipfTableLimit)

// newZipfSampler returns a sampler equal, draw for draw, to
// rand.NewZipf(rand.New(r), s, v, imax). It requires s > 1 and v >= 1.
func newZipfSampler(r *rngSource, s, v float64, imax uint64) *zipfSampler {
	key := fmt.Sprintf("%x/%x/%d", math.Float64bits(s), math.Float64bits(v), imax)
	t, _, _ := zipfTables.Do(context.Background(), key, func() (*zipfTable, error) { // never fails
		return newZipfTable(s, v, imax), nil
	})
	return &zipfSampler{r: r, zipfTable: t}
}

// newZipfTable computes the stdlib's constants and builds the table.
func newZipfTable(s, v float64, imax uint64) *zipfTable {
	z := &zipfTable{imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	z.build()
	return z
}

func (z *zipfTable) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfTable) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// attempt is one iteration of the stdlib's rejection loop for the draw r.
func (z *zipfTable) attempt(r float64) (k float64, ok bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k = math.Floor(x + 0.5)
	if k-x <= z.s {
		return k, true
	}
	return k, ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q)
}

// Uint64 returns the next rank in [0, imax].
func (z *zipfSampler) Uint64() uint64 {
	for {
		r := z.r.Float64()
		switch o := z.segment(r); o {
		case zipfReject:
			continue
		case zipfExact:
			if k, ok := z.attempt(r); ok {
				return uint64(k)
			}
		default:
			return uint64(o)
		}
	}
}

// segment returns the table's outcome for the draw r.
func (z *zipfTable) segment(r float64) int16 {
	i := int(z.guide[int(r*zipfGuide)])
	for z.edges[i+1] <= r {
		i++
	}
	return z.out[i]
}

// toR maps a value of h back to the draw r that produces it.
func (z *zipfTable) toR(ur float64) float64 {
	return (ur - z.hxm) / z.hx0minusHxm
}

// breaks returns, ascending, the draws r at which the attempt's outcome
// can change for the head ranks: each rank's upper bin edge (its lower
// edge is the previous rank's upper one, and rank 0's lies past r = 1)
// and its acceptance edge, where x passes the lower of the squeeze edge
// k-s and the hat edge. The last head rank's upper edge is where the tail
// begins. It returns nil if any break is not a number.
func (z *zipfTable) breaks() []float64 {
	head := min(z.imax+1, zipfHead)
	bs := make([]float64, 0, 2*int(head))
	for k := 0.0; k < head; k++ {
		squeeze := z.toR(z.h(k - z.s))
		hat := z.toR(z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q))
		bs = append(bs, z.toR(z.h(k+0.5)), math.Max(squeeze, hat))
	}
	for _, b := range bs {
		if math.IsNaN(b) {
			return nil
		}
	}
	sort.Float64s(bs)
	return bs
}

// build lays out the segments: exact from 0 through the tail and the
// band around every break, and between bands the outcome of an attempt at
// the segment's midpoint, which holds for every draw in the segment.
func (z *zipfTable) build() {
	bs := z.breaks()
	if bs == nil {
		z.edges, z.out = []float64{0, 1}, []int16{zipfExact}
		return
	}
	z.edges = append(make([]float64, 0, 2*len(bs)+3), 0)
	z.out = append(make([]int16, 0, 2*len(bs)+2), zipfExact)
	// The band widens with the conditioning of r -> ur: rounding in ur is
	// a few ulps of the largest |h| the draws reach, |hxm| or
	// |hxm + hx0minusHxm|, and a draw moves ur by |hx0minusHxm| per unit.
	cond := math.Max(math.Abs(z.hxm), math.Abs(z.hxm+z.hx0minusHxm)) / math.Abs(z.hx0minusHxm)
	band := math.Max(zipfBand, 0x1p-40*cond)
	tailEnd := z.toR(z.h(min(z.imax+1, zipfHead) - 0.5))
	pos := tailEnd + band // [0, pos) is exact
	clean := func(hi float64) {
		z.edges = append(z.edges, pos)
		z.out = append(z.out, z.outcome(pos+(hi-pos)/2))
	}
	for _, b := range bs {
		if b-band >= 1 {
			break
		}
		if b-band > pos {
			clean(b - band)
			z.edges = append(z.edges, b-band)
			z.out = append(z.out, zipfExact)
		}
		pos = math.Max(pos, b+band)
	}
	if pos < 1 {
		clean(1)
	}
	z.edges = append(z.edges, 1)

	i := 0
	for b := range z.guide {
		for z.edges[i+1] <= float64(b)/zipfGuide {
			i++
		}
		z.guide[b] = uint16(i)
	}
}

// outcome classifies the attempt at draw r for the table.
func (z *zipfTable) outcome(r float64) int16 {
	k, ok := z.attempt(r)
	switch {
	case !ok:
		return zipfReject
	case k >= 0 && k < zipfHead:
		return int16(k)
	}
	return zipfExact
}
