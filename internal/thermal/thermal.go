// Package thermal models the chip-level cooling environments of the
// paper's Section V-A: conventional air cooling and the liquid-nitrogen
// bath that cryogenic operation assumes. Each environment is a steady-state
// thermal resistance from junction to coolant plus a heat-removal capacity;
// the paper's numbers — 65 W air capacity, 157 W LN-bath capacity (2.41x),
// and "20 K of little temperature variation" across the bath — anchor the
// presets.
//
// Beyond budget checks, the package closes the loop the paper's Fig. 1
// leaves open: operating temperature is not a free knob but the fixed point
// of T = T_coolant + R_th * P(T), where device power itself depends on
// temperature through leakage. SolveOperatingPoint finds that fixed point,
// and the root package's thermal study shows the paper's 350 K
// normalization anchor emerging as the air-cooled equilibrium of an
// SRAM-LLC chip.
package thermal

import (
	"fmt"
	"math"
)

// Model is one steady-state cooling environment.
type Model struct {
	// Name labels the environment.
	Name string
	// CoolantK is the coolant temperature in kelvin.
	CoolantK float64
	// ResistanceKPerW is the junction-to-coolant thermal resistance.
	ResistanceKPerW float64
	// CapacityW is the maximum removable heat.
	CapacityW float64
}

// Air returns conventional air cooling: 300 K ambient, 65 W capacity (the
// paper's reference), and a resistance that puts a fully loaded chip near
// the 350 K thermal design point.
func Air() Model {
	return Model{
		Name:            "air",
		CoolantK:        300,
		ResistanceKPerW: 0.75,
		CapacityW:       65,
	}
}

// LNBath returns liquid-nitrogen bath cooling: 77 K coolant, 157 W
// capacity, and a resistance bounding the variation at the paper's ~20 K
// under full load.
func LNBath() Model {
	return Model{
		Name:            "ln-bath",
		CoolantK:        77,
		ResistanceKPerW: 20.0 / 157.0,
		CapacityW:       157,
	}
}

// Validate reports non-physical parameters.
func (m Model) Validate() error {
	if m.CoolantK <= 0 || m.ResistanceKPerW <= 0 || m.CapacityW <= 0 {
		return fmt.Errorf("thermal: %s: parameters must be positive", m.Name)
	}
	return nil
}

// WithinBudget reports whether the load fits the environment.
func (m Model) WithinBudget(powerW float64) bool {
	return powerW >= 0 && powerW <= m.CapacityW
}

// SolveOperatingPoint finds the self-consistent junction temperature
// T = CoolantK + R_th * P(T) for a temperature-dependent power function,
// by damped fixed-point iteration. The power function is evaluated on
// temperatures clamped to [minK, maxK] (pass the range your models
// support); the returned temperature also lies in that range. An error
// reports capacity exhaustion or non-convergence.
func SolveOperatingPoint(m Model, power func(tempK float64) float64, minK, maxK float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if minK >= maxK {
		return 0, fmt.Errorf("thermal: empty temperature range [%g, %g]", minK, maxK)
	}
	clamp := func(t float64) float64 { return math.Min(maxK, math.Max(minK, t)) }
	t := clamp(m.CoolantK)
	const damping = 0.5
	for i := 0; i < 500; i++ {
		p := power(clamp(t))
		if p < 0 {
			return 0, fmt.Errorf("thermal: negative power at %g K", t)
		}
		if !m.WithinBudget(p) {
			return 0, fmt.Errorf("thermal: %s: load %.1f W exceeds capacity %.1f W", m.Name, p, m.CapacityW)
		}
		next := clamp(m.CoolantK + m.ResistanceKPerW*p)
		if math.Abs(next-t) < 1e-6 {
			return next, nil
		}
		t = t + damping*(next-t)
	}
	return 0, fmt.Errorf("thermal: %s: operating point did not converge", m.Name)
}
