package tech

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// memoTemps are the paper grid's effective temperatures, the deep-cryo
// sweep's, and 1000 seeded draws over the validated window [4, 400] K.
func memoTemps(seed int64) []float64 {
	temps := []float64{
		TempCryo77, 127, 177, 227, 277, 327, TempHot350, TempTDP387, TempRoom, // paper grid
		4, 10, 20, 40, 200, 250, // deep-cryo sweep
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1000; i++ {
		temps = append(temps, 4+396*rng.Float64())
	}
	return temps
}

// directResistivity is WireResistivity without the memo.
func directResistivity(t float64) float64 {
	return wireSizeEffect * (wireResidualRho + copperBulkRho300*bgIntegralRatio(t)/bgRatio300)
}

func checkBitIdentical(t *testing.T, temps []float64) {
	t.Helper()
	for _, temp := range temps {
		got, want := WireResistivity(temp), directResistivity(temp)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WireResistivity(%v) = %v, direct formula gives %v", temp, got, want)
		}
	}
}

// TestWireResistivityConcurrent has many goroutines race on the same fresh
// temperatures; under -race it checks the memo's synchronization, and every
// caller must still see the direct evaluation's bits. It runs before
// TestWireResistivityMemoBitIdentical fills the memo.
func TestWireResistivityConcurrent(t *testing.T) {
	temps := []float64{3.5e2 + 0.125, 77.0625, 4.03125, 288.5}
	want := make([]float64, len(temps))
	for i, temp := range temps {
		want[i] = directResistivity(temp)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range temps {
				i := (g + k) % len(temps)
				if got := WireResistivity(temps[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d: WireResistivity(%v) = %v, want %v", g, temps[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWireResistivityMemoBitIdentical pins the memo as exact: a miss, a
// hit, and a call made after the memo is full all return the bits of the
// direct Simpson evaluation, and the memo never outgrows its limit.
func TestWireResistivityMemoBitIdentical(t *testing.T) {
	temps := memoTemps(1)
	checkBitIdentical(t, temps) // misses
	checkBitIdentical(t, temps) // hits

	for i := 0; i < bgMemoLimit+100; i++ {
		WireResistivity(1000 + float64(i)) // distinct keys, outside any grid
	}
	if n := bgMemo.Stats().Len; n > bgMemoLimit {
		t.Fatalf("memo holds %d temperatures after %d distinct ones, past its limit %d", n, bgMemoLimit+100, bgMemoLimit)
	}
	checkBitIdentical(t, temps)        // evicted or still held
	checkBitIdentical(t, memoTemps(2)) // computed into a full memo
	if n := bgMemo.Stats().Len; n > bgMemoLimit {
		t.Fatalf("memo grew to %d past its limit %d", n, bgMemoLimit)
	}
}

// BenchmarkWireResistivity contrasts the Simpson integral every wire
// construction paid before the memo with the memo hit it pays now.
func BenchmarkWireResistivity(b *testing.B) {
	var sink float64
	b.Run("integral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += directResistivity(TempCryo77)
		}
	})
	b.Run("memo", func(b *testing.B) {
		WireResistivity(TempCryo77)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += WireResistivity(TempCryo77)
		}
	})
	benchSink = sink
}

var benchSink float64
