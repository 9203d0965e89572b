package tech

import (
	"fmt"
	"math"
)

// Copper lattice parameters for the Bloch–Grüneisen resistivity model.
const (
	// copperDebyeK is the Debye temperature of copper in kelvin.
	copperDebyeK = 343.0
	// copperBulkRho300 is the phonon-limited bulk resistivity of copper at
	// 300 K in ohm-metres (1.68e-8 total minus residual).
	copperBulkRho300 = 1.60e-8
	// wireResidualRho is the temperature-independent residual resistivity
	// of scaled on-chip interconnect (grain-boundary and surface
	// scattering). It is chosen so that rho(300 K)/rho(77 K) ~= 6, matching
	// the on-chip wire improvement reported by CryoMEM and used in the
	// paper ("Copper bulk resistivity is reduced by six times").
	wireResidualRho = 0.164e-8
	// wireSizeEffect scales bulk resistivity up to account for the
	// dimensions of 22 nm-class interconnect (Fuchs-Sondheimer /
	// Mayadas-Shatzkes effects folded into one multiplier).
	wireSizeEffect = 2.0
)

// blochGruneisen returns the phonon contribution to copper resistivity at
// temperature t (kelvin), in ohm-metres, normalized so that the value at
// 300 K equals copperBulkRho300.
func blochGruneisen(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return copperBulkRho300 * bgRatio(t) / bgRatio300
}

// bgRatio returns the dimensionless Bloch–Grüneisen shape (T/ThetaD)^5 *
// J5(z), z = ThetaD/T, J5(z) = integral_0^z x^5 e^x / (e^x - 1)^2 dx. By
// parts, J5(z) = 5*I4(z) - z^5/(e^z - 1), I4(z) = integral_0^z x^4/(e^x - 1)
// dx. For z >= 2, I4 is Gamma(5)*zeta(5) minus the tail sum_k e^(-kz)
// (z^4/k + 4z^3/k^2 + 12z^2/k^3 + 24z/k^4 + 24/k^5); below 2 it is the
// Bernoulli series z^4/4 - z^5/10 + sum_n i4Series[n-1] z^(2n+4), which
// converges for z < 2*pi. Each is summed to below 1e-17 of the result.
func bgRatio(t float64) float64 {
	z := copperDebyeK / t
	z2 := z * z
	var i4 float64
	if z < 2 {
		acc := 0.0
		for i := len(i4Series) - 1; i >= 0; i-- {
			acc = (acc + i4Series[i]) * z2
		}
		i4 = z2 * z2 * (0.25 - z/10 + acc)
	} else {
		const full = 24 * 1.0369277551433699263313654864570341680570809 // Gamma(5)*zeta(5)
		q, tail := math.Exp(-z), 0.0
		for k, p := 1.0, q; ; k, p = k+1, p*q {
			u := 1 / k
			term := p * u * (z2*z2 + u*(4*z2*z+u*(12*z2+u*(24*z+u*24))))
			if tail += term; term < 1e-17*full {
				break
			}
		}
		i4 = full - tail
	}
	z5 := z * z * z * z * z
	return (5*i4 - z5/math.Expm1(z)) / z5
}

// i4Series holds B_2n / ((2n)! (2n + 4)) for n = 1..18, from the Bernoulli
// expansion x/(e^x - 1) = sum_m B_m x^m / m!.
var i4Series = func() (c [18]float64) {
	bernoulli := [len(c)]float64{ // B_2, B_4, ..., B_36
		1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6,
		-3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
		-236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
		8615841276005.0 / 14322, -7709321041217.0 / 510, 2577687858367.0 / 6,
		-26315271553053477373.0 / 1919190,
	}
	fact := 1.0
	for i, b := range bernoulli {
		m := float64(2 * (i + 1))
		fact *= (m - 1) * m
		c[i] = b / (fact * (m + 4))
	}
	return c
}()

// bgRatio300 is the Bloch–Grüneisen shape at the 300 K calibration point.
var bgRatio300 = bgRatio(TempRoom)

// WireResistivity returns the resistivity of on-chip copper interconnect at
// temperature t (kelvin), in ohm-metres, including size effects and the
// residual term that limits the cryogenic improvement to ~6x at 77 K.
func WireResistivity(t float64) float64 {
	return wireSizeEffect * (wireResidualRho + blochGruneisen(t))
}

// WireResistivityRatio returns rho(t)/rho(ref): the factor by which wire
// resistance changes when moving from temperature ref to t.
func WireResistivityRatio(t, ref float64) float64 {
	return WireResistivity(t) / WireResistivity(ref)
}

// Threshold-voltage temperature behaviour. Vth rises as the device cools;
// dVthdT is kept moderate (0.4 mV/K) to reflect the cryogenic-tuned HP
// devices (Vdd 0.8 V / Vth 0.5 V at 300 K per PTM/ITRS) assumed by the
// paper, which preserve overdrive at 77 K.
const (
	dVthdT = 0.0001 // V per kelvin of cooling
	// subthresholdSwingIdeality is the MOSFET ideality factor n in
	// Isub ~ exp(-Vth / (n kT/q)).
	subthresholdSwingIdeality = 1.3
	// leakageFloorFraction is the fraction of 350 K subthreshold leakage
	// contributed by temperature-insensitive mechanisms (gate and
	// band-to-band tunneling). It sets the ~1e6x floor on total leakage
	// reduction observed at 77 K.
	leakageFloorFraction = 1.0e-6
	// mobilityExponent governs phonon-limited mobility improvement,
	// mu(T) ~ (300/T)^mobilityExponent, moderated below the bulk value of
	// 1.5 to reflect velocity saturation in short-channel devices.
	mobilityExponent = 0.7
	// alphaPower is the exponent of the alpha-power law drain current
	// model, Ion ~ mu * (Vdd - Vth)^alpha.
	alphaPower = 1.3
	// mobilityPlateauK is the regime boundary between the paper's 77 K
	// calibration and the deep-cryogenic extension. Above it, carrier
	// mobility is phonon-limited and keeps improving as the lattice cools.
	// Below ~77 K phonon scattering is largely frozen out and transport
	// becomes limited by temperature-insensitive mechanisms — ionized
	// impurity and surface-roughness scattering in the heavily-doped
	// short-channel devices modeled here — while dopant freeze-out claws
	// back some of the carrier density. Net: the measured on-current of
	// FETs is roughly flat from 77 K down to 4 K (cryo-CMOS
	// characterization literature, e.g. the high-frequency core studies
	// this extension is calibrated against), so the model clamps the
	// mobility term at its 77 K value. Vth continues its linear shift and
	// subthreshold leakage continues to collapse onto the tunneling floor;
	// both behave smoothly through the boundary.
	mobilityPlateauK = 77.0
)

// ThresholdVoltage returns the device threshold voltage at temperature t for
// a device with threshold vth300 at 300 K. The linear band-gap-driven shift
// saturates at the 77 K regime boundary along with the mobility gain (see
// mobilityPlateauK): below it the shift mechanisms are largely exhausted,
// so the 4 K device corner matches the 77 K one except for leakage, which
// keeps collapsing onto its tunneling floor.
func ThresholdVoltage(vth300, t float64) float64 {
	eff := math.Max(t, mobilityPlateauK)
	return vth300 + dVthdT*(TempRoom-eff)
}

// SubthresholdLeakageScale returns the ratio of subthreshold-plus-floor
// leakage current at temperature t to that at reference temperature ref, for
// a device with threshold vth300 (at 300 K). The model is
//
//	Isub(T) = I0 (T/300)^2 exp(-Vth(T) / (n kT/q)) + Ifloor
//
// with Ifloor pinned to leakageFloorFraction of the 350 K value, which
// produces the ~1e6x total leakage reduction at 77 K reported in the paper.
func SubthresholdLeakageScale(vth300, t, ref float64) float64 {
	floor := leakageFloorFraction * rawSubthreshold(vth300, TempHot350)
	num := rawSubthreshold(vth300, t) + floor
	den := rawSubthreshold(vth300, ref) + floor
	return num / den
}

// rawSubthreshold evaluates the unnormalized subthreshold current magnitude
// at temperature t.
func rawSubthreshold(vth300, t float64) float64 {
	vth := ThresholdVoltage(vth300, t)
	vT := ThermalVoltage(t)
	return (t / TempRoom) * (t / TempRoom) *
		math.Exp(-vth/(subthresholdSwingIdeality*vT))
}

// OnCurrentScale returns Ion(t)/Ion(ref) for a device operating at supply
// vdd with 300 K threshold vth300, combining mobility improvement with the
// loss of gate overdrive from the rising threshold (alpha-power law).
func OnCurrentScale(vdd, vth300, t, ref float64) float64 {
	on := func(temp float64) float64 {
		vth := ThresholdVoltage(vth300, temp)
		od := vdd - vth
		if od <= 0.01 {
			od = 0.01 // overdrive guard: almost no drive left
		}
		// Below the plateau boundary the mobility gain saturates (see
		// mobilityPlateauK): the temperature in the phonon term is clamped
		// while the threshold shift above keeps tracking the true
		// temperature.
		phononT := math.Max(temp, mobilityPlateauK)
		mu := math.Pow(TempRoom/phononT, mobilityExponent)
		return mu * math.Pow(od, alphaPower)
	}
	return on(t) / on(ref)
}

// GateDelayScale returns the intrinsic CMOS gate-delay multiplier at
// temperature t relative to ref: delay ~ C Vdd / Ion, with C and Vdd held
// constant, so the scale is simply the inverse on-current ratio.
func GateDelayScale(vdd, vth300, t, ref float64) float64 {
	return 1.0 / OnCurrentScale(vdd, vth300, t, ref)
}

// ValidateTemperature reports an error when t is outside the range the
// models are calibrated for: 4 K (the deep-cryogenic helium point) up to
// 400 K (above the studied TDP point). The window splits into two regimes
// at mobilityPlateauK = 77 K: above it every model follows the paper's
// phonon-limited calibration; below it carrier freeze-out is handled by
// clamping the mobility gain at its 77 K value while wire resistivity
// (Bloch–Grüneisen + residual), the Vth shift and the subthreshold/floor
// leakage mix continue smoothly — see the mobilityPlateauK comment.
func ValidateTemperature(t float64) error {
	if t < 4 || t > 400 {
		return fmt.Errorf("tech: temperature %.1f K outside supported range [4, 400]", t)
	}
	return nil
}
