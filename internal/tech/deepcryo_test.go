package tech

import (
	"math"
	"testing"
	"testing/quick"
)

// Property tests for the sub-77 K regime: every temperature-improved
// quantity must stay monotone through the 77 K regime boundary all the way
// down to 4 K, and the boundary itself must not introduce a discontinuity.

// sampleTemp maps a byte onto the full validated window [4, 400].
func sampleTemp(b uint8) float64 {
	return 4 + float64(b)*(396.0/255)
}

func TestWireResistivityMonotoneTo4K(t *testing.T) {
	// Colder wires never resist more, over any pair in [4, 400] K.
	f := func(a, b uint8) bool {
		t1, t2 := sampleTemp(a), sampleTemp(b)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		return WireResistivity(lo) <= WireResistivity(hi)+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireResistivityResidualDominatedAt4K(t *testing.T) {
	// At 4 K the phonon term has collapsed: resistivity is within 1% of
	// the pure residual floor, so cooling below 77 K buys little wire RC.
	rho4 := WireResistivity(4)
	floor := wireSizeEffect * wireResidualRho
	if rho4 > floor*1.01 {
		t.Errorf("WireResistivity(4) = %.3e, want within 1%% of residual floor %.3e", rho4, floor)
	}
	// And the 300 K / 4 K ratio stays bounded by the residual (~10.8x —
	// modestly above the ~6x at 77 K), not the bulk phonon ratio, which
	// would be orders of magnitude.
	if r := WireResistivity(300) / rho4; r < 9 || r > 13 {
		t.Errorf("wire resistivity 300K/4K = %.2f, want ~10-11x (residual-limited)", r)
	}
}

func TestFO4DelayMonotoneNonIncreasingTo4K(t *testing.T) {
	// Gates never slow down as the device cools: GateDelayScale(lo) <=
	// GateDelayScale(hi) for any pair in [4, 400] K on the 22 nm HP device.
	f := func(a, b uint8) bool {
		t1, t2 := sampleTemp(a), sampleTemp(b)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		return GateDelayScale(0.8, 0.5, lo, TempRoom) <=
			GateDelayScale(0.8, 0.5, hi, TempRoom)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeakageMonotoneNonIncreasingTo4K(t *testing.T) {
	// Colder devices never leak more, all the way to 4 K.
	f := func(a, b uint8) bool {
		t1, t2 := sampleTemp(a), sampleTemp(b)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		return SubthresholdLeakageScale(0.5, lo, TempHot350) <=
			SubthresholdLeakageScale(0.5, hi, TempHot350)+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeakageFloorReachedBelow77K(t *testing.T) {
	// Below 77 K the exponential subthreshold term is gone; only the
	// tunneling floor remains, so 4 K buys essentially nothing over 77 K.
	s77 := SubthresholdLeakageScale(0.5, 77, TempHot350)
	s4 := SubthresholdLeakageScale(0.5, 4, TempHot350)
	if s4 <= 0 || math.IsNaN(s4) {
		t.Fatalf("leakage scale at 4 K must stay positive and finite, got %g", s4)
	}
	if ratio := s77 / s4; ratio > 1.5 {
		t.Errorf("leakage 77K/4K = %.3f, want ~1 (floor-dominated below 77 K)", ratio)
	}
}

func TestOnCurrentPlateauBelow77K(t *testing.T) {
	// The freeze-out clamp: on-current at 4 K differs from 77 K only by
	// the continued Vth shift (a few percent), never by the phonon
	// mobility power law (which alone would be (77/4)^0.7 ~ 8x).
	i77 := OnCurrentScale(0.8, 0.5, 77, TempRoom)
	i4 := OnCurrentScale(0.8, 0.5, 4, TempRoom)
	if r := i4 / i77; r < 0.90 || r > 1.05 {
		t.Errorf("on-current 4K/77K = %.3f, want ~1 (mobility plateau)", r)
	}
	// The boundary must be continuous: values just above and below 77 K
	// agree to first order.
	hi := OnCurrentScale(0.8, 0.5, 77.01, TempRoom)
	lo := OnCurrentScale(0.8, 0.5, 76.99, TempRoom)
	if math.Abs(hi-lo)/hi > 1e-3 {
		t.Errorf("on-current discontinuous at 77 K boundary: %.6f vs %.6f", lo, hi)
	}
}

func TestDeviceCornerAt4K(t *testing.T) {
	// A 4 K corner on the default node must resolve with finite, positive
	// timing — the end-to-end prerequisite for deep-cryo design points.
	c, err := Node22HP().At(4)
	if err != nil {
		t.Fatalf("Node22HP().At(4): %v", err)
	}
	if c.FO4Delay <= 0 || math.IsNaN(c.FO4Delay) || math.IsInf(c.FO4Delay, 0) {
		t.Errorf("FO4 delay at 4 K = %g, want positive finite", c.FO4Delay)
	}
	if c.FO4Delay >= Node22HP().FO4Delay300 {
		t.Errorf("FO4 at 4 K (%g) should beat 300 K (%g)", c.FO4Delay, Node22HP().FO4Delay300)
	}
	if rho := WireResistivity(c.Temperature); rho <= 0 || rho >= WireResistivity(TempRoom) {
		t.Errorf("wire rho at 4 K = %g out of expected range", rho)
	}
}
