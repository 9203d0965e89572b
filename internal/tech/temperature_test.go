package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWireResistivityCalibration(t *testing.T) {
	// On-chip copper should improve by roughly 6x from 300 K to 77 K,
	// the value CryoMEM and the paper quote.
	ratio := WireResistivityRatio(TempRoom, TempCryo77)
	if ratio < 5.0 || ratio > 7.0 {
		t.Errorf("rho(300)/rho(77) = %.2f, want ~6", ratio)
	}
}

func TestWireResistivityMonotonicInTemperature(t *testing.T) {
	prev := WireResistivity(77)
	for temp := 87.0; temp <= 400; temp += 10 {
		cur := WireResistivity(temp)
		if cur <= prev {
			t.Fatalf("resistivity not monotonic at %.0f K: %.3e <= %.3e", temp, cur, prev)
		}
		prev = cur
	}
}

func TestWireResistivityNearLinearAboveDebyeThird(t *testing.T) {
	// Above ~ThetaD/3 the Bloch–Grüneisen phonon term is close to linear
	// in T; check that the secant slopes on [200,300] and [300,400] agree
	// within 15%.
	s1 := (blochGruneisen(300) - blochGruneisen(200)) / 100
	s2 := (blochGruneisen(400) - blochGruneisen(300)) / 100
	if math.Abs(s1-s2)/s2 > 0.15 {
		t.Errorf("phonon resistivity not near-linear: slopes %.3e vs %.3e", s1, s2)
	}
}

func TestBlochGruneisenLowTemperatureSuppression(t *testing.T) {
	// The phonon term must collapse far faster than linearly at low T.
	if r := blochGruneisen(77) / blochGruneisen(300); r > 77.0/300.0 {
		t.Errorf("phonon term at 77 K too large: ratio %.3f", r)
	}
	if blochGruneisen(0) != 0 {
		t.Errorf("phonon term at 0 K must vanish")
	}
}

func TestSubthresholdLeakage77KFloor(t *testing.T) {
	// Total leakage at 77 K should sit around six orders of magnitude
	// below the 350 K value — the paper reports "approximately
	// 1,000,000x less".
	scale := SubthresholdLeakageScale(0.5, TempCryo77, TempHot350)
	if scale > 5e-6 || scale < 1e-7 {
		t.Errorf("leakage(77K)/leakage(350K) = %.3e, want ~1e-6", scale)
	}
}

func TestSubthresholdLeakageMonotonic(t *testing.T) {
	prev := SubthresholdLeakageScale(0.5, 77, TempHot350)
	for temp := 97.0; temp <= 390; temp += 10 {
		cur := SubthresholdLeakageScale(0.5, temp, TempHot350)
		if cur <= prev {
			t.Fatalf("leakage not monotonic at %.0f K", temp)
		}
		prev = cur
	}
}

func TestSubthresholdLeakage387Higher(t *testing.T) {
	if s := SubthresholdLeakageScale(0.5, TempTDP387, TempHot350); s <= 1 {
		t.Errorf("leakage at 387 K should exceed 350 K, got scale %.3f", s)
	}
}

func TestHigherThresholdLeaksLess(t *testing.T) {
	vth := Node22HP().Vth300
	lo := rawSubthreshold(vth+0.1, TempHot350) // +100 mV threshold
	hi := rawSubthreshold(vth, TempHot350)
	if lo >= hi {
		t.Fatalf("raised threshold must reduce leakage: %.3e >= %.3e", lo, hi)
	}
	// ~100 mV of threshold at n*kT/q ≈ 39 mV (350 K) is ~e^2.5 ≈ 12x.
	if r := hi / lo; r < 5 || r > 50 {
		t.Errorf("100 mV threshold shift gave %.1fx at 350 K, want 5-50x", r)
	}
}

func TestOnCurrentImprovesWhenCold(t *testing.T) {
	// Cryo-tuned HP devices (shallow Vth(T) slope, phonon-limited
	// mobility) roughly quadruple drive current at 77 K vs 350 K.
	s := OnCurrentScale(0.8, 0.5, TempCryo77, TempHot350)
	if s < 2.0 || s > 5.0 {
		t.Errorf("Ion(77K)/Ion(350K) = %.2f, want 2-5x", s)
	}
}

func TestGateDelayScaleInvertsOnCurrent(t *testing.T) {
	got := GateDelayScale(0.8, 0.5, 77, 300) * OnCurrentScale(0.8, 0.5, 77, 300)
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("GateDelayScale * OnCurrentScale = %.15f, want 1", got)
	}
}

func TestThresholdVoltageRisesWhenCooled(t *testing.T) {
	if ThresholdVoltage(0.5, 77) <= ThresholdVoltage(0.5, 300) {
		t.Error("threshold must rise as temperature falls")
	}
	if got := ThresholdVoltage(0.5, 300); got != 0.5 {
		t.Errorf("Vth at 300 K = %g, want nominal 0.5", got)
	}
}

func TestValidateTemperatureBounds(t *testing.T) {
	for _, bad := range []float64{0, 3.9, 400.1, 1000, -10} {
		if err := ValidateTemperature(bad); err == nil {
			t.Errorf("ValidateTemperature(%g) = nil, want error", bad)
		}
	}
	for _, good := range []float64{4, 20, 50, 70, 77, 300, 350, 387, 400} {
		if err := ValidateTemperature(good); err != nil {
			t.Errorf("ValidateTemperature(%g) = %v, want nil", good, err)
		}
	}
}

func TestThermalVoltage(t *testing.T) {
	// kT/q at 300 K is the canonical 25.85 mV.
	if v := ThermalVoltage(300); math.Abs(v-0.02585) > 0.0002 {
		t.Errorf("ThermalVoltage(300) = %.5f, want ~0.02585", v)
	}
}

func TestLeakageScalePropertyOrdering(t *testing.T) {
	// Property: for any pair of in-range temperatures, the colder one
	// never leaks more.
	f := func(a, b uint8) bool {
		t1 := 77 + float64(a)*(310.0/255)
		t2 := 77 + float64(b)*(310.0/255)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		return SubthresholdLeakageScale(0.5, lo, TempHot350) <=
			SubthresholdLeakageScale(0.5, hi, TempHot350)+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireResistivityPropertyPositive(t *testing.T) {
	f := func(a uint8) bool {
		temp := 70 + float64(a)*(330.0/255)
		return WireResistivity(temp) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
