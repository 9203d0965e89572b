package thermal

import (
	"math"
	"testing"
)

func TestPaperAnchors(t *testing.T) {
	air, ln := Air(), LNBath()
	// LN bath removes 2.41x what air does (Sec. V-A).
	if r := ln.CapacityW / air.CapacityW; math.Abs(r-2.415) > 0.02 {
		t.Errorf("capacity ratio %.3f, want ~2.41", r)
	}
	// "20 K of little temperature variation" across the bath: the
	// junction rise above coolant at full capacity.
	if v := ln.ResistanceKPerW * ln.CapacityW; math.Abs(v-20) > 0.01 {
		t.Errorf("LN bath variation %.1f K, want 20 K", v)
	}
	// A fully loaded air-cooled chip sits near the 350 K design point.
	tj, err := SolveOperatingPoint(air, func(float64) float64 { return air.CapacityW }, 70, 400)
	if err != nil {
		t.Fatal(err)
	}
	if tj < 340 || tj > 360 {
		t.Errorf("air-cooled full-load junction %.0f K, want ~350 K", tj)
	}
}

func TestJunctionTempChecks(t *testing.T) {
	air := Air()
	constant := func(w float64) func(float64) float64 { return func(float64) float64 { return w } }
	if _, err := SolveOperatingPoint(air, constant(air.CapacityW+1), 70, 400); err == nil {
		t.Error("over-capacity load should fail")
	}
	bad := Model{Name: "x"}
	if _, err := SolveOperatingPoint(bad, constant(1), 70, 400); err == nil {
		t.Error("invalid model should fail")
	}
	if !air.WithinBudget(50) || air.WithinBudget(100) || air.WithinBudget(-1) {
		t.Error("budget check wrong")
	}
}

func TestJunctionTempLinearInPower(t *testing.T) {
	ln := LNBath()
	t0, _ := SolveOperatingPoint(ln, func(float64) float64 { return 0 }, 70, 400)
	t100, _ := SolveOperatingPoint(ln, func(float64) float64 { return 100 }, 70, 400)
	if t0 != 77 {
		t.Errorf("idle junction %.1f K, want coolant temperature", t0)
	}
	if got := t100 - t0; math.Abs(got-100*ln.ResistanceKPerW) > 1e-9 {
		t.Errorf("rise %.3f K, want linear", got)
	}
}

func TestSolveOperatingPointConstantPower(t *testing.T) {
	air := Air()
	tj, err := SolveOperatingPoint(air, func(float64) float64 { return 40 }, 70, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := 300 + 0.75*40
	if math.Abs(tj-want) > 1e-3 {
		t.Errorf("constant-power fixed point %.2f K, want %.2f", tj, want)
	}
}

func TestSolveOperatingPointLeakageFeedback(t *testing.T) {
	// Power rising with temperature (leakage) pushes the fixed point
	// above the constant-power solution but convergence holds as long as
	// the loop gain R_th * dP/dT stays below one.
	air := Air()
	base := 40.0
	power := func(tempK float64) float64 { return base + 0.2*(tempK-300) }
	tj, err := SolveOperatingPoint(air, power, 70, 400)
	if err != nil {
		t.Fatal(err)
	}
	constant, _ := SolveOperatingPoint(air, func(float64) float64 { return base }, 70, 400)
	if tj <= constant {
		t.Errorf("leakage feedback should raise the fixed point: %.2f vs %.2f", tj, constant)
	}
	// Verify it is actually a fixed point.
	want := 300 + 0.75*power(tj)
	if math.Abs(tj-want) > 1e-3 {
		t.Errorf("not a fixed point: %.3f vs %.3f", tj, want)
	}
}

func TestSolveOperatingPointCapacityExhaustion(t *testing.T) {
	air := Air()
	if _, err := SolveOperatingPoint(air, func(float64) float64 { return 100 }, 70, 400); err == nil {
		t.Error("over-capacity load should fail")
	}
	if _, err := SolveOperatingPoint(air, func(float64) float64 { return -1 }, 70, 400); err == nil {
		t.Error("negative power should fail")
	}
	if _, err := SolveOperatingPoint(air, func(float64) float64 { return 1 }, 400, 70); err == nil {
		t.Error("empty range should fail")
	}
}

func TestSolveOperatingPointLNBath(t *testing.T) {
	ln := LNBath()
	// A 40 W cryogenic chip floats ~5 K above the bath.
	tj, err := SolveOperatingPoint(ln, func(float64) float64 { return 40 }, 70, 400)
	if err != nil {
		t.Fatal(err)
	}
	if tj < 77 || tj > 77+20 {
		t.Errorf("bath operating point %.1f K, want within the 20 K variation", tj)
	}
}
