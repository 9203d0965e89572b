package tech

import (
	"math"
	"testing"
)

// simpsonRatio is the Bloch–Grüneisen shape by an n-panel Simpson rule
// (n even): the quadrature bgRatio's closed form replaced, kept as its
// oracle. At n = 2000 it returns the bits the quadrature returned.
func simpsonRatio(t float64, n int) float64 {
	upper := copperDebyeK / t
	// The integrand -> x^3 as x -> 0, so the origin is benign; evaluate
	// with the small-x limit to avoid 0/0.
	f := func(x float64) float64 {
		if x < 1e-9 {
			return x * x * x
		}
		return math.Pow(x, 5) / ((math.Exp(x) - 1) * (1 - math.Exp(-x)))
	}
	h := upper / float64(n)
	sum := f(0) + f(upper)
	for i := 1; i < n; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	integral := sum * h / 3
	return math.Pow(t/copperDebyeK, 5) * integral
}

// oraclePanels and oracleTol: a 20,000-panel rule is within ~1.1e-13 of
// the closed form over [4, 400] K (its own discretization and rounding
// error), so 1e-12 leaves room without hiding a wrong series term, which
// would be off by far more.
const (
	oraclePanels = 20000
	oracleTol    = 1e-12
)

func checkAgainstOracle(t *testing.T, temp float64) {
	t.Helper()
	got, want := bgRatio(temp), simpsonRatio(temp, oraclePanels)
	if rel := math.Abs(got-want) / want; !(rel <= oracleTol) {
		t.Errorf("bgRatio(%v) = %.17g, %d-panel Simpson gives %.17g (relative error %.2g > %g)",
			temp, got, oraclePanels, want, rel, oracleTol)
	}
}

// TestBlochGruneisenMatchesSimpson checks the closed form against the
// quadrature oracle every 0.5 K over [4, 400] K, plus temperatures either
// side of the z = ThetaD/T = 2 switch between the tail and the Bernoulli
// series (T = 171.5 K).
func TestBlochGruneisenMatchesSimpson(t *testing.T) {
	temps := []float64{
		copperDebyeK / 2, math.Nextafter(copperDebyeK/2, 0), math.Nextafter(copperDebyeK/2, 400),
		171.4, 171.49, 171.51, 171.6,
	}
	for temp := 4.0; temp <= 400; temp += 0.5 {
		temps = append(temps, temp)
	}
	for _, temp := range temps {
		checkAgainstOracle(t, temp)
	}
}

func TestWireResistivityRatioAtRoomIsOne(t *testing.T) {
	if r := WireResistivityRatio(TempRoom, TempRoom); r != 1 {
		t.Errorf("WireResistivityRatio(300, 300) = %v, want exactly 1", r)
	}
}

// FuzzWireResistivity maps any finite float onto [4, 400] K and checks
// the closed form there against the Simpson oracle.
func FuzzWireResistivity(f *testing.F) {
	for _, seed := range []float64{0, 73, copperDebyeK/2 - 4, 167.5, 396} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		checkAgainstOracle(t, 4+math.Mod(math.Abs(x), 396))
	})
}

// BenchmarkWireResistivity contrasts the closed form every wire
// construction pays with the 2000-panel Simpson rule it replaced.
func BenchmarkWireResistivity(b *testing.B) {
	var sink float64
	b.Run("closed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += bgRatio(TempCryo77)
		}
	})
	b.Run("simpson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += simpsonRatio(TempCryo77, 2000)
		}
	})
	benchSink = sink
}

var benchSink float64
