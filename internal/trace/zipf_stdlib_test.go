package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// stdlibZipf is the generator trace.Zipf was before its sampler became a
// table: math/rand.Zipf over the region's blocks, the same rank scatter and
// the same write-flag draw. It is the oracle the table is held to.
func stdlibZipf(blocks uint64, skew, writeFrac float64, seed int64) func() trace.Access {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, skew, 1, blocks-1)
	return func() trace.Access {
		blk := z.Uint64() * 0x9E3779B97F4A7C15 % blocks
		return trace.Access{Addr: blk * trace.BlockBytes, Write: rng.Float64() < writeFrac}
	}
}

// matchStdlib checks draws accesses of trace.NewZipf against the oracle.
func matchStdlib(t *testing.T, blocks uint64, skew, writeFrac float64, seed int64, draws int) {
	t.Helper()
	got, err := trace.NewZipf(trace.Region{Size: blocks * trace.BlockBytes}, skew, writeFrac, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := stdlibZipf(blocks, skew, writeFrac, seed)
	for i := 0; i < draws; i++ {
		if g, w := got.Next(), want(); g != w {
			t.Fatalf("blocks=%d skew=%g seed=%d: access %d = %+v, math/rand.Zipf gives %+v",
				blocks, skew, seed, i, g, w)
		}
	}
}

// TestZipfMatchesStdlib holds the table sampler to math/rand.Zipf draw for
// draw: every workload profile's hot set, and a grid of skews against block
// counts on both sides of the table's 1024-rank head.
func TestZipfMatchesStdlib(t *testing.T) {
	const draws = 100_000
	seeds := []int64{1, 42, 20231017}
	for _, p := range workload.Profiles() {
		blocks := trace.Region{Size: p.HotSetBytes}.Blocks()
		t.Run(p.Name, func(t *testing.T) {
			for _, seed := range seeds {
				matchStdlib(t, blocks, p.ZipfSkew, p.WriteFrac, seed, draws)
			}
		})
	}
	for _, skew := range []float64{1.05, 1.1, 1.3, 1.5, 1.9, 2.5} {
		for _, blocks := range []uint64{16, 256, 768, 1023, 1024, 1025, 4096, 163840} {
			t.Run(fmt.Sprintf("skew=%g/blocks=%d", skew, blocks), func(t *testing.T) {
				for _, seed := range seeds {
					matchStdlib(t, blocks, skew, 0.3, seed, draws)
				}
			})
		}
	}
}

// FuzzZipfMatchesStdlib holds the table sampler to math/rand.Zipf over
// skews in (1, 4] and hot sets of 16 to 2^18 blocks.
func FuzzZipfMatchesStdlib(f *testing.F) {
	f.Add(1.4, uint32(384), int64(1))
	f.Add(1.05, uint32(163840), int64(7))
	f.Add(4.0, uint32(16), int64(-3))
	f.Add(1.0001, uint32(1024), int64(99))
	f.Fuzz(func(t *testing.T, skew float64, blocks uint32, seed int64) {
		if !(skew > 1 && skew <= 4) || blocks < 16 || blocks > 1<<18 {
			return
		}
		matchStdlib(t, uint64(blocks), skew, 0.25, seed, 2000)
	})
}

// TestProfilesShareZipfTables pins the table memo's reach for the built-in
// profiles: their 23 hot sets take one table per distinct (hot-set size,
// skew) pair, all resident at once, so a second round of generator builds
// (the next signature fold or miss replay) builds none.
func TestProfilesShareZipfTables(t *testing.T) {
	distinct := map[[2]float64]bool{}
	build := func() {
		for _, p := range workload.Profiles() {
			if _, err := p.Generator(1); err != nil {
				t.Fatal(err)
			}
			distinct[[2]float64{float64(p.HotSetBytes), p.ZipfSkew}] = true
		}
	}
	before := trace.ZipfTableMisses()
	build()
	first := trace.ZipfTableMisses() - before
	build()
	if again := trace.ZipfTableMisses() - before - first; again != 0 {
		t.Fatalf("a second round of profile generators built %d tables, want 0", again)
	}
	if first > int64(len(distinct)) {
		t.Fatalf("the profiles built %d tables for %d distinct (hot set, skew) pairs", first, len(distinct))
	}
	if len(distinct) != 13 {
		t.Fatalf("the profiles have %d distinct (hot set, skew) pairs, want 13", len(distinct))
	}
}
