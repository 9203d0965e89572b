package cell

import (
	"math"
	"testing"
	"testing/quick"

	"coldtall/internal/tech"
)

func TestGainCellBuiltinShape(t *testing.T) {
	c := NewGainCellOS()
	if err := c.Validate(); err != nil {
		t.Fatalf("builtin gain cell invalid: %v", err)
	}
	if c.Tech != OSGC {
		t.Errorf("Tech = %v, want OSGC", c.Tech)
	}
	if OSGC.IsNonVolatile() {
		t.Error("the gain cell is volatile")
	}
	if !c.NeedsRefresh() {
		t.Error("finite retention must imply refresh")
	}
	if c.Sense != SenseVoltage {
		t.Error("gain cells are voltage-sensed")
	}
	if c.RetentionActEV <= 0 {
		t.Error("the OS gain cell must use the Arrhenius retention model")
	}
}

func TestGainCellRetentionDecreasesWithTemperatureRise(t *testing.T) {
	// Property: for any pair of in-range temperatures, the hotter corner
	// never retains longer. This is the refresh-path contract — the
	// 350 K design point sets the refresh interval, so it must be the
	// worst case.
	c := NewGainCellOS()
	f := func(a, b uint8) bool {
		t1 := 4 + float64(a)*(396.0/255)
		t2 := 4 + float64(b)*(396.0/255)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		cLo, err1 := tech.Node22HP().At(lo)
		cHi, err2 := tech.Node22HP().At(hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return c.Retention(cLo) >= c.Retention(cHi)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGainCellRetentionMagnitudes(t *testing.T) {
	c := NewGainCellOS()
	mk := func(temp float64) tech.DeviceCorner {
		corner, err := tech.Node22HP().At(temp)
		if err != nil {
			t.Fatalf("corner(%g): %v", temp, err)
		}
		return corner
	}
	r300 := c.Retention(mk(300))
	if math.Abs(r300-c.Retention300S)/c.Retention300S > 0.01 {
		t.Errorf("Retention at 300 K = %g, want ~Retention300S = %g", r300, c.Retention300S)
	}
	// Hot corner: the 0.45 eV activation costs a bit over an order of
	// magnitude from 300 K to 350 K — still a second-class interval, so
	// refresh power stays negligible.
	r350 := c.Retention(mk(350))
	if ratio := r300 / r350; ratio < 5 || ratio > 50 {
		t.Errorf("retention 300K/350K = %.1f, want ~10x (Arrhenius, 0.45 eV)", ratio)
	}
	// Cold corners: the floor caps the gain near 1e4x, at 77 K and 4 K
	// alike (the exponential is long gone).
	r77 := c.Retention(mk(77))
	if gain := r77 / r300; gain < 1e3 || gain > 1e5 {
		t.Errorf("retention gain at 77 K = %.3g, want ~1e4 (floor-capped)", gain)
	}
	r4 := c.Retention(mk(4))
	if math.IsInf(r4, 1) || math.IsNaN(r4) || r4 < r77 {
		t.Errorf("retention at 4 K = %g, want finite and >= 77 K value %g", r4, r77)
	}
}

func TestGainCellTentpoleCorners(t *testing.T) {
	opt, pess := tentpolePair(t, OSGC)
	for _, c := range []Cell{opt, pess} {
		if err := c.Validate(); err != nil {
			t.Errorf("tentpole %s invalid: %v", c.Name, err)
		}
	}
	if opt.Name != "osgc-optimistic" || pess.Name != "osgc-pessimistic" {
		t.Errorf("tentpole names %q/%q, want osgc-optimistic/osgc-pessimistic", opt.Name, pess.Name)
	}
	// The volatile axes must compose: optimistic takes the survey's
	// longest retention, smallest area and shallowest activation.
	if opt.Retention300S <= pess.Retention300S {
		t.Errorf("optimistic retention %g should exceed pessimistic %g",
			opt.Retention300S, pess.Retention300S)
	}
	if opt.AreaF2 >= pess.AreaF2 {
		t.Errorf("optimistic area %g should be below pessimistic %g", opt.AreaF2, pess.AreaF2)
	}
	if opt.RetentionActEV >= pess.RetentionActEV {
		t.Errorf("optimistic activation %g should be below pessimistic %g",
			opt.RetentionActEV, pess.RetentionActEV)
	}
	// Bounds come from the database extremes.
	if opt.Retention300S != 30.0 || pess.Retention300S != 0.8 {
		t.Errorf("retention corners %g/%g, want 30/0.8 from the survey",
			opt.Retention300S, pess.Retention300S)
	}
}

func TestENVMTentpolesUnchangedByVolatileAxes(t *testing.T) {
	// The volatile-axis composition must be the identity for the eNVMs:
	// corners keep infinite retention, zero cell leakage and zero
	// activation, so every seed artifact built from them is unchanged.
	for _, tc := range []Technology{PCM, STTRAM, RRAM, SOTRAM} {
		opt, pess := tentpolePair(t, tc)
		for _, c := range []Cell{opt, pess} {
			if !math.IsInf(c.Retention300S, 1) {
				t.Errorf("%s: retention %g, want +Inf", c.Name, c.Retention300S)
			}
			if c.SubLeakRel != 0 || c.FloorLeakRel != 0 || c.RetentionActEV != 0 {
				t.Errorf("%s: volatile axes leaked into an eNVM corner", c.Name)
			}
		}
	}
}
