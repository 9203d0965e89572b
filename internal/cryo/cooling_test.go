package cryo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOverheadValuesMatchPaper(t *testing.T) {
	want := map[CoolerClass]float64{
		Cooler100kW: 9.65,
		Cooler1kW:   14.3,
		Cooler100W:  21.8,
		Cooler10W:   39.6,
	}
	for c, w := range want {
		if got := c.Overhead(); got != w {
			t.Errorf("%v overhead = %g, want %g", c, got, w)
		}
	}
}

func TestOverheadAmortizesWithCapacity(t *testing.T) {
	// Classes runs from the largest cooler to the smallest, so the
	// overhead per watt must rise along it.
	cls := Classes()
	if len(cls) != 4 {
		t.Fatalf("%d cooler classes, want 4", len(cls))
	}
	for i := 1; i < len(cls); i++ {
		if cls[i].Overhead() <= cls[i-1].Overhead() {
			t.Errorf("%v overhead %g should exceed the larger %v's %g", cls[i], cls[i].Overhead(), cls[i-1], cls[i-1].Overhead())
		}
	}
}

func TestTotalPowerChargesOnlyWhenCold(t *testing.T) {
	c := DefaultCooling()
	if got := c.TotalPower(1.0, 350); got != 1.0 {
		t.Errorf("350 K should not pay cooling, got %g", got)
	}
	if got := c.TotalPower(1.0, 77); math.Abs(got-10.65) > 1e-12 {
		t.Errorf("77 K total power = %g, want 10.65 (paper: 10.65x less needed to break even)", got)
	}
	if got := c.CoolingPower(2.0, 77); math.Abs(got-2.0*9.65) > 1e-12 {
		t.Errorf("cooling power = %g, want %g", got, 2.0*9.65)
	}
	if got := c.CoolingPower(2.0, 300); got != 0 {
		t.Errorf("warm cooling power = %g, want 0", got)
	}
}

// TestBreakEvenReduction pins the paper's break-even factor: a 77 K
// design must cut device power by TotalPower(1 W, 77 K) to match an
// uncooled one.
func TestBreakEvenReduction(t *testing.T) {
	if got := DefaultCooling().TotalPower(1, 77); math.Abs(got-10.65) > 1e-12 {
		t.Errorf("break-even = %g, want 10.65", got)
	}
	small := Cooling{Class: Cooler10W, ThresholdK: 200}
	if got := small.TotalPower(1, 77); math.Abs(got-40.6) > 1e-12 {
		t.Errorf("10W break-even = %g, want 40.6", got)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultCooling().Validate(); err != nil {
		t.Errorf("default cooling invalid: %v", err)
	}
	if err := (Cooling{Class: Cooler1kW, ThresholdK: 0}).Validate(); err == nil {
		t.Error("zero threshold should be rejected")
	}
	if err := (Cooling{Class: CoolerClass(9), ThresholdK: 200}).Validate(); err == nil {
		t.Error("unknown class should be rejected")
	}
}

func TestAppliesThreshold(t *testing.T) {
	c := DefaultCooling()
	for temp, want := range map[float64]bool{77: true, 200: true, 201: false, 300: false, 387: false} {
		if got := c.Applies(temp); got != want {
			t.Errorf("Applies(%g) = %v, want %v", temp, got, want)
		}
	}
}

func TestEffectiveTemperaturesSpanPaperRange(t *testing.T) {
	ts := EffectiveTemperatures()
	if ts[0] != 77 || ts[len(ts)-1] != 387 {
		t.Errorf("temperature sweep should span 77-387 K, got %v", ts)
	}
	has350 := false
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Error("temperatures not ascending")
		}
		if ts[i] == 350 {
			has350 = true
		}
	}
	if !has350 {
		t.Error("sweep must include the 350 K normalization anchor")
	}
}

func TestTotalPowerLinearityProperty(t *testing.T) {
	f := func(p uint16, cls uint8) bool {
		c := Cooling{Class: Classes()[int(cls)%4], ThresholdK: 200}
		dev := float64(p) / 100
		tot := c.TotalPower(dev, 77)
		// Linear in device power and always >= device power.
		return tot >= dev && math.Abs(c.TotalPower(2*dev, 77)-2*tot) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[CoolerClass]string{
		Cooler100kW: "100kW", Cooler1kW: "1kW", Cooler100W: "100W", Cooler10W: "10W",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d String = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	for _, bad := range []string{"", "5W", "100kw", "77K"} {
		if _, err := ParseClass(bad); err == nil {
			t.Errorf("ParseClass(%q) accepted", bad)
		}
	}
}
