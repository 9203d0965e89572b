package tech

import (
	"testing"
	"testing/quick"
)

func TestNewWireKnownLayers(t *testing.T) {
	for _, l := range []WireLayer{WireLocal, WireIntermediate, WireGlobal} {
		w, err := NewWire(l, 300)
		if err != nil {
			t.Fatalf("NewWire(%v): %v", l, err)
		}
		if w.ResistancePerMeter() <= 0 || w.CapacitancePerMeter() <= 0 {
			t.Errorf("layer %v has non-positive RC", l)
		}
	}
}

func TestNewWireUnknownLayer(t *testing.T) {
	if _, err := NewWire(WireLayer(99), 300); err == nil {
		t.Error("expected error for unknown layer")
	}
}

func TestNewWireBadTemperature(t *testing.T) {
	if _, err := NewWire(WireGlobal, 2); err == nil {
		t.Error("expected error for 2 K (below the 4 K model floor)")
	}
}

func TestWiderLayersHaveLowerResistance(t *testing.T) {
	local, _ := NewWire(WireLocal, 300)
	mid, _ := NewWire(WireIntermediate, 300)
	global, _ := NewWire(WireGlobal, 300)
	if !(local.ResistancePerMeter() > mid.ResistancePerMeter() &&
		mid.ResistancePerMeter() > global.ResistancePerMeter()) {
		t.Error("resistance should fall from local to global layers")
	}
}

// TestWireColdIsFaster: the array's wire RC (0.38 Rw Cw in the H-tree
// and the bitlines) falls with temperature because resistance does, while
// capacitance per metre is held fixed.
func TestWireColdIsFaster(t *testing.T) {
	cold, _ := NewWire(WireGlobal, 77)
	hot, _ := NewWire(WireGlobal, 350)
	l := 5e-3 // 5 mm H-tree arm
	if cold.Capacitance(l) != hot.Capacitance(l) {
		t.Fatal("wire capacitance should not depend on temperature")
	}
	rcCold := cold.Resistance(l) * cold.Capacitance(l)
	rcHot := hot.Resistance(l) * hot.Capacitance(l)
	if rcCold >= rcHot {
		t.Fatalf("wire RC at 77 K (%.3e) should beat 350 K (%.3e)", rcCold, rcHot)
	}
	// Copper resistivity drops ~4-8x from 350 K to 77 K.
	if r := rcHot / rcCold; r < 3 || r > 10 {
		t.Errorf("77 K wire RC speedup %.2fx, want 3-10x", r)
	}
}

func TestWireLayerString(t *testing.T) {
	cases := map[WireLayer]string{
		WireLocal:        "local",
		WireIntermediate: "intermediate",
		WireGlobal:       "global",
		WireLayer(7):     "WireLayer(7)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(l), got, want)
		}
	}
}

func TestWireDelayPropertyMonotonicTemperature(t *testing.T) {
	f := func(a, b uint8) bool {
		t1 := 77 + float64(a)*(310.0/255)
		t2 := 77 + float64(b)*(310.0/255)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		w1, err1 := NewWire(WireGlobal, t1)
		w2, err2 := NewWire(WireGlobal, t2)
		if err1 != nil || err2 != nil {
			return false
		}
		return w1.Resistance(1e-3)*w1.Capacitance(1e-3) <= w2.Resistance(1e-3)*w2.Capacitance(1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewWireScaled(t *testing.T) {
	ref, err := NewWireScaled(WireGlobal, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base, _ := NewWire(WireGlobal, 300); base != ref {
		t.Error("scale 1 should equal the reference stack")
	}
	half, err := NewWireScaled(WireGlobal, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-section shrinks quadratically: resistance per metre x4.
	if r := half.ResistancePerMeter() / ref.ResistancePerMeter(); r < 3.99 || r > 4.01 {
		t.Errorf("half-scale resistance ratio %.3f, want 4", r)
	}
	if half.CapacitancePerMeter() != ref.CapacitancePerMeter() {
		t.Error("capacitance per metre is scale-invariant")
	}
	if _, err := NewWireScaled(WireGlobal, 300, 0); err == nil {
		t.Error("zero scale should fail")
	}
}
