package explorer

// Property tests for the pure analysis kernels: contentionModel's M/D/1
// shape, Normalize's self-identity, and lifetimeYears' edge cases — the
// invariants the figures silently rely on.

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"coldtall/internal/array"
	"coldtall/internal/cell"
	"coldtall/internal/workload"
)

// atRho evaluates contentionModel at an exact utilization by fixing
// bandwidth at 1 access/s and demanding rho accesses/s.
func atRho(rho float64) (util, factor float64) {
	tr := workload.Traffic{Benchmark: "synthetic", ReadsPerSec: rho}
	r := array.Result{BandwidthAccesses: 1}
	return contentionModel(tr, r)
}

func TestContentionFactorIsOneAtIdle(t *testing.T) {
	util, factor := atRho(0)
	if util != 0 || factor != 1 {
		t.Errorf("rho=0: got (%g, %g), want (0, 1)", util, factor)
	}
	// Idle is idle regardless of how the bandwidth is scaled.
	for _, bw := range []float64{1e-6, 1, 1e12} {
		_, f := contentionModel(workload.Traffic{}, array.Result{BandwidthAccesses: bw})
		if f != 1 {
			t.Errorf("bw=%g idle factor = %g, want 1", bw, f)
		}
	}
}

// TestContentionFactorStrictlyIncreasing quick-checks monotonicity on
// (0, 1): for any two utilizations rho1 < rho2 below saturation, the M/D/1
// waiting factor is strictly larger at rho2.
func TestContentionFactorStrictlyIncreasing(t *testing.T) {
	prop := func(a, b uint16) bool {
		// Map the two samples into (0, 1), distinct by construction.
		r1 := (float64(a) + 1) / (1 << 16)
		r2 := (float64(b) + 1) / (1 << 16)
		if r1 == r2 {
			return true
		}
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		_, f1 := atRho(r1)
		_, f2 := atRho(r2)
		return f1 < f2 && f1 >= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestContentionFactorCappedAtSaturation quick-checks the reporting cap:
// at or beyond rho = 1 the factor is exactly 100, and the utilization is
// reported uncapped.
func TestContentionFactorCappedAtSaturation(t *testing.T) {
	prop := func(a uint16) bool {
		rho := 1 + float64(a)/1000 // [1, ~66.5]
		util, factor := atRho(rho)
		return factor == 100 && util == rho
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// Degenerate arrays (no sustainable bandwidth) saturate immediately.
	util, factor := contentionModel(workload.Traffic{ReadsPerSec: 1}, array.Result{})
	if !math.IsInf(util, 1) || factor != 100 {
		t.Errorf("zero-bandwidth array: got (%g, %g), want (+Inf, 100)", util, factor)
	}
}

// TestNormalizeSelfIsAllOnes quick-checks the normalization identity: any
// evaluation with finite nonzero metrics normalized against itself is
// exactly all-ones (IEEE x/x == 1), which is what anchors every figure's
// baseline point at 1.0.
func TestNormalizeSelfIsAllOnes(t *testing.T) {
	prop := func(pw, dp, lat, area uint32) bool {
		// Strictly positive finite metrics spanning ~9 orders of magnitude.
		ev := Evaluation{
			TotalPower:       1e-6 * (float64(pw) + 1),
			DevicePower:      1e-3 * (float64(dp) + 1),
			AggregateLatency: 1e-9 * (float64(lat) + 1),
			Array:            array.Result{FootprintM2: 1e-8 * (float64(area) + 1)},
		}
		rel := Normalize(ev, ev)
		return rel.RelPower == 1 && rel.RelDevicePower == 1 &&
			rel.RelLatency == 1 && rel.RelArea == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestLifetimeYearsEdgeCases is the table-driven contract of the wear
// model, including the Table II 50-year alt-choice boundary.
func TestLifetimeYearsEdgeCases(t *testing.T) {
	// The default 16 MiB LLC has 262144 64-byte blocks; with writes/s
	// equal to the block count, each block sees one write per second, so
	// lifetime in years is EnduranceCycles / 31557600 (a Julian year).
	const blocks = (16 << 20) / 64
	const yearSeconds = 365.25 * 24 * 3600

	point := func(endurance float64) DesignPoint {
		p := Baseline()
		p.Cell.EnduranceCycles = endurance
		return p
	}
	tr := func(writes float64) workload.Traffic {
		return workload.Traffic{Benchmark: "synthetic", WritesPerSec: writes}
	}

	cases := []struct {
		name      string
		endurance float64
		writes    float64
		want      float64
		concern   bool // falls below the Table II alt-choice threshold
	}{
		{"zero write rate", 1e8, 0, math.Inf(1), false},
		{"infinite endurance", math.Inf(1), 1e9, math.Inf(1), false},
		{"infinite endurance and idle", math.Inf(1), 0, math.Inf(1), false},
		// Exactly at the 50-year boundary: 50 * 31557600 cycles at one
		// write per block per second. The alt-choice rule is strict
		// (concern only below the threshold), so 50.0 raises none.
		{"exact 50-year boundary", 50 * yearSeconds, blocks, 50, false},
		{"just under the boundary", 50*yearSeconds - 1e9, blocks, (50*yearSeconds - 1e9) / yearSeconds, true},
		{"PCM-class endurance, heavy writes", 1e8, 4.3e7, 1e8 * blocks / 4.3e7 / yearSeconds, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := point(tc.endurance)
			got := lifetimeYears(array.Result{}, p, tr(tc.writes))
			if math.IsInf(tc.want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("lifetime = %g, want +Inf", got)
				}
			} else if math.Abs(got-tc.want) > tc.want*1e-12 {
				t.Fatalf("lifetime = %g years, want %g", got, tc.want)
			}
			if concern := got < EnduranceThresholdYears; concern != tc.concern {
				t.Errorf("endurance concern = %v at %g years, want %v (threshold %g)",
					concern, got, tc.concern, EnduranceThresholdYears)
			}
		})
	}
}

// TestLifetimeMatchesEvaluate ties the unit-level kernel to the public
// path: EvaluateContext must report exactly lifetimeYears for its inputs.
func TestLifetimeMatchesEvaluate(t *testing.T) {
	p := stacked(t, cell.PCM, cell.Optimistic, 1)
	tr := traffic(t, "lbm")
	ev, err := exp(t).EvaluateContext(context.Background(), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := lifetimeYears(ev.Array, p, tr); ev.LifetimeYears != want {
		t.Errorf("Evaluate lifetime %g != kernel %g", ev.LifetimeYears, want)
	}
}
