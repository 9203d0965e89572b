package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// aim sets rng up so that its next Int63 returns v: a draw adds the tap
// word to the feed word, so the feed word becomes v minus the tap word.
// The draws after it continue from the changed state.
func aim(rng *rngSource, v int64) {
	tap, feed := rng.tap-1, rng.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	rng.vec[feed] = v - rng.vec[tap]
}

// drawsBetween is how many draws took rng's feed index from before to
// after (fewer than rngLen).
func drawsBetween(before, after *rngSource) int {
	return (before.feed - after.feed + rngLen) % rngLen
}

// TestZipfMatchesStdlibAtBreaks aims draws at every stored segment edge
// and every break of the step function, and 1-2 ulps either side of each,
// so the guard-band path is exercised rather than sampled: each answer,
// and the draws it took, must equal math/rand.Zipf's over a copy of the
// same source state.
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
				src := newRNGSource(1)
				z.r = src
				for _, v := range vals {
					aim(src, v)
					before, mirror := *src, *src
					oracle := rand.NewZipf(rand.New(&mirror), skew, 1, imax)
					if got, want := z.Uint64(), oracle.Uint64(); got != want || *src != mirror {
						t.Fatalf("draw aimed at r=%g: rank %d after %d draws, math/rand.Zipf gives %d after %d",
							float64(v)/(1<<63), got, drawsBetween(&before, src), want, drawsBetween(&before, &mirror))
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
		z := newZipfTable(1.4, 1, imax)
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
// here) with a draw from the table, and times one table build and one
// sampler build over a shared table, for a profile-sized hot set.
func BenchmarkZipf(b *testing.B) {
	const skew, imax = 1.4, 383
	b.Run("stdlib", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), skew, 1, imax)
		for i := 0; i < b.N; i++ {
			sinkRank = z.Uint64()
		}
	})
	b.Run("table", func(b *testing.B) {
		z := newZipfSampler(newRNGSource(1), skew, 1, imax)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkRank = z.Uint64()
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRank = uint64(len(newZipfTable(skew, 1, imax).edges))
		}
	})
	b.Run("shared", func(b *testing.B) {
		rng := newRNGSource(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRank = uint64(len(newZipfSampler(rng, skew, 1, imax).edges))
		}
	})
}

// TestZipfTablesBounded pins the table memo's bound under the skew churn
// of a distillation search: three times more distinct skews than the
// limit, and the memo never holds more than the limit.
func TestZipfTablesBounded(t *testing.T) {
	for i := 0; i < 3*zipfTableLimit; i++ {
		skew := 1.05 + 0.0137*float64(i)
		z := newZipfSampler(nil, skew, 1, 383)
		if z.q != skew {
			t.Fatalf("sampler for skew %g holds the table of skew %g", skew, z.q)
		}
		if n := zipfTables.Stats().Len; n > zipfTableLimit {
			t.Fatalf("after %d skews the memo holds %d tables, over its limit %d", i+1, n, zipfTableLimit)
		}
	}
}

// TestZipfSharedTableConcurrent draws from two samplers that share one
// table, built and drawn in parallel goroutines (run it under -race): each
// stream must equal the one a sampler drawn alone gives.
func TestZipfSharedTableConcurrent(t *testing.T) {
	const skew, imax, n = 1.37, 511, 200_000
	serial := func(seed int64) []uint64 {
		z := newZipfSampler(newRNGSource(seed), skew, 1, imax)
		out := make([]uint64, n)
		for i := range out {
			out[i] = z.Uint64()
		}
		return out
	}
	seeds := [2]int64{11, 12}
	var samplers [2]*zipfSampler
	var got [2][]uint64
	done := make(chan int)
	for i, seed := range seeds {
		go func() {
			samplers[i] = newZipfSampler(newRNGSource(seed), skew, 1, imax)
			got[i] = make([]uint64, n)
			for j := range got[i] {
				got[i][j] = samplers[i].Uint64()
			}
			done <- i
		}()
	}
	<-done
	<-done
	if samplers[0].zipfTable != samplers[1].zipfTable {
		t.Fatal("samplers of equal parameters hold different tables")
	}
	for i, seed := range seeds {
		want := serial(seed)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("seed %d: parallel draw %d = %d, serial draw gives %d", seed, j, got[i][j], want[j])
			}
		}
	}
}
