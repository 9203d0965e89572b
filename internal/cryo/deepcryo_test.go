package cryo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOverheadAtFlatAtAndAbove77K(t *testing.T) {
	// The survey anchors are untouched: every cooled temperature the seed
	// artifacts use (77, 127, 177 K) must see exactly the flat class
	// overhead, or golden byte-identity breaks.
	for _, cl := range Classes() {
		for _, temp := range []float64{77, 127, 177, 200} {
			if got := cl.OverheadAt(temp); got != cl.Overhead() {
				t.Errorf("%v.OverheadAt(%g) = %g, want flat %g", cl, temp, got, cl.Overhead())
			}
		}
	}
}

func TestOverheadMonotoneIncreasingAsTargetDrops(t *testing.T) {
	// Property: over [4, 200] K, a colder target never costs less to hold.
	f := func(a, b uint8) bool {
		t1 := 4 + float64(a)*(196.0/255)
		t2 := 4 + float64(b)*(196.0/255)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		for _, cl := range Classes() {
			if cl.OverheadAt(lo) < cl.OverheadAt(hi)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverheadAt4KIsHeliumPlantClass(t *testing.T) {
	// The 100 kW class lands near ~1100 W/W at 4 K — the order of
	// magnitude of large helium liquefier plants (Carnot ratio ~25.6x the
	// 77 K lift, times the second-law penalty).
	got := Cooler100kW.OverheadAt(4)
	if got < 500 || got > 2500 {
		t.Errorf("100kW overhead at 4 K = %.0f W/W, want helium-plant order (500-2500)", got)
	}
	// Sanity of the shape: 20 K (hydrogen-class) sits well between the
	// 77 K anchor and the 4 K extreme.
	o20 := Cooler100kW.OverheadAt(20)
	if !(Cooler100kW.Overhead() < o20 && o20 < got) {
		t.Errorf("overhead ordering violated: 77K=%.1f, 20K=%.1f, 4K=%.1f",
			Cooler100kW.Overhead(), o20, got)
	}
}

func TestTotalPowerUsesTemperatureResolvedOverhead(t *testing.T) {
	c := DefaultCooling()
	// At 77 K nothing changed vs the historical flat model.
	if got, want := c.TotalPower(1, 77), 1+9.65; math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalPower(1, 77) = %g, want %g", got, want)
	}
	// At 4 K the Carnot-scaled overhead is charged.
	if got, want := c.TotalPower(1, 4), 1+Cooler100kW.OverheadAt(4); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalPower(1, 4) = %g, want %g", got, want)
	}
	// Above the threshold cooling stays free.
	if got := c.TotalPower(1, 300); got != 1 {
		t.Errorf("TotalPower(1, 300) = %g, want 1", got)
	}
}

// TestBreakEvenReductionAt pins the break-even factor resolved at an
// operating temperature, TotalPower(1 W, T): the flat survey value at
// 77 K, and a larger one at 4 K.
func TestBreakEvenReductionAt(t *testing.T) {
	c := DefaultCooling()
	if got, want := c.TotalPower(1, 77), 1+c.Class.Overhead(); got != want {
		t.Errorf("break-even at 77 K = %g, want the flat %g", got, want)
	}
	if got := c.TotalPower(1, 4); got <= c.TotalPower(1, 77) {
		t.Errorf("break-even at 4 K = %g, want above the 77 K value", got)
	}
}

func TestDeepTemperaturesWithinValidatedRange(t *testing.T) {
	temps := DeepTemperatures()
	if temps[0] != 4 || temps[len(temps)-1] != 300 {
		t.Errorf("DeepTemperatures() spans [%g, %g], want [4, 300]", temps[0], temps[len(temps)-1])
	}
	for i := 1; i < len(temps); i++ {
		if temps[i] <= temps[i-1] {
			t.Errorf("DeepTemperatures() not ascending at %d: %v", i, temps)
		}
	}
}
