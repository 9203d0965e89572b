package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scriptSource replays fixed Int63 values, then falls back to a seeded
// source, so a test can aim Float64 at chosen draws.
type scriptSource struct {
	vals []int64
	next int
	rest rand.Source
}

func (s *scriptSource) Int63() int64 {
	if s.next < len(s.vals) {
		s.next++
		return s.vals[s.next-1]
	}
	return s.rest.Int63()
}

func (s *scriptSource) Seed(int64) {}

// TestZipfMatchesStdlibAtBreaks aims draws at every stored segment edge
// and every break of the step function, and 1-2 ulps either side of each,
// so the guard-band path is exercised rather than sampled: each answer
// must equal math/rand.Zipf's from the same source.
func TestZipfMatchesStdlibAtBreaks(t *testing.T) {
	for _, skew := range []float64{1.001, 1.05, 1.3, 1.5, 1.9, 2.5, 4} {
		for _, imax := range []uint64{15, 383, 1023, 1024, 163839} {
			t.Run(fmt.Sprintf("skew=%g/imax=%d", skew, imax), func(t *testing.T) {
				z := newZipfSampler(nil, skew, 1, imax)
				bs := z.breaks()
				if bs == nil {
					t.Fatal("breaks not a number")
				}
				var vals []int64
				for _, e := range append(bs, z.edges...) {
					for _, r := range []float64{
						math.Nextafter(math.Nextafter(e, 0), 0), math.Nextafter(e, 0),
						e, math.Nextafter(e, 1), math.Nextafter(math.Nextafter(e, 1), 1),
					} {
						if r >= 0 && r < 1 {
							vals = append(vals, int64(r*(1<<63)))
						}
					}
				}
				exact := 0
				for _, v := range vals {
					if z.segment(float64(v)/(1<<63)) == zipfExact {
						exact++
					}
				}
				if exact == 0 {
					t.Fatal("no aimed draw reaches the exact path")
				}
				src := &scriptSource{vals: vals, rest: rand.NewSource(1)}
				oracleSrc := &scriptSource{vals: vals, rest: rand.NewSource(1)}
				z.r = rand.New(src)
				oracle := rand.NewZipf(rand.New(oracleSrc), skew, 1, imax)
				for src.next < len(vals) {
					at := src.next
					if got, want := z.Uint64(), oracle.Uint64(); got != want || src.next != oracleSrc.next {
						t.Fatalf("draw aimed at r=%g: rank %d after %d draws, math/rand.Zipf gives %d after %d",
							float64(vals[at])/(1<<63), got, src.next-at, want, oracleSrc.next-at)
					}
				}
			})
		}
	}
}

// TestZipfTableShape pins the table's invariants: edges ascend from 0 to
// the sentinel 1, the guide points at the segment holding each bucket's
// lower end, and every rank stored is a head rank.
func TestZipfTableShape(t *testing.T) {
	for _, imax := range []uint64{0, 15, 1023, 1 << 18} {
		z := newZipfSampler(nil, 1.4, 1, imax)
		n := len(z.edges)
		if z.edges[0] != 0 || z.edges[n-1] != 1 || len(z.out) != n-1 {
			t.Fatalf("imax=%d: edges [%g..%g] over %d outcomes", imax, z.edges[0], z.edges[n-1], len(z.out))
		}
		for i := 1; i < n; i++ {
			if z.edges[i] <= z.edges[i-1] {
				t.Fatalf("imax=%d: edge %d (%g) not above edge %d (%g)", imax, i, z.edges[i], i-1, z.edges[i-1])
			}
		}
		for b, i := range z.guide {
			lo := float64(b) / zipfGuide
			if z.edges[i] > lo || z.edges[i+1] <= lo {
				t.Fatalf("imax=%d: guide %d -> segment %d [%g, %g) misses %g", imax, b, i, z.edges[i], z.edges[i+1], lo)
			}
		}
		for i, o := range z.out {
			if o < zipfExact || int(o) > min(int(imax), zipfHead-1) {
				t.Fatalf("imax=%d: segment %d holds %d", imax, i, o)
			}
		}
	}
}

var sinkRank uint64

// BenchmarkZipf compares a draw from math/rand.Zipf (the oracle, kept only
// here) with a draw from the table, and times one table build, for a
// profile-sized hot set.
func BenchmarkZipf(b *testing.B) {
	const skew, imax = 1.4, 383
	b.Run("stdlib", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), skew, 1, imax)
		for i := 0; i < b.N; i++ {
			sinkRank = z.Uint64()
		}
	})
	b.Run("table", func(b *testing.B) {
		z := newZipfSampler(rand.New(rand.NewSource(1)), skew, 1, imax)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkRank = z.Uint64()
		}
	})
	b.Run("build", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRank = uint64(len(newZipfSampler(rng, skew, 1, imax).edges))
		}
	})
}
