package tech

import "fmt"

// WireLayer selects one of the interconnect layer classes used inside a
// memory macro: local wires route within a subarray, intermediate wires
// within a mat, and global wires form the H-tree between banks.
type WireLayer int

const (
	// WireLocal is minimum-pitch metal (wordlines, bitlines, M1/M2).
	WireLocal WireLayer = iota
	// WireIntermediate is relaxed-pitch routing within a mat.
	WireIntermediate
	// WireGlobal is wide upper metal used for the inter-bank H-tree.
	WireGlobal
)

// String returns the layer name.
func (l WireLayer) String() string {
	switch l {
	case WireLocal:
		return "local"
	case WireIntermediate:
		return "intermediate"
	case WireGlobal:
		return "global"
	default:
		return fmt.Sprintf("WireLayer(%d)", int(l))
	}
}

// wireGeometry holds the physical cross-section of a layer.
type wireGeometry struct {
	width     float64 // metres
	thickness float64 // metres
	capPerM   float64 // farads per metre (weak temperature dependence, held fixed)
}

// geometries for a 22 nm-class metal stack.
var wireGeometries = map[WireLayer]wireGeometry{
	WireLocal:        {width: 40e-9, thickness: 80e-9, capPerM: 180e-12},
	WireIntermediate: {width: 60e-9, thickness: 120e-9, capPerM: 200e-12},
	WireGlobal:       {width: 150e-9, thickness: 300e-9, capPerM: 220e-12},
}

// Wire is a temperature-evaluated interconnect layer. Construct with
// NewWire; the zero value is not usable.
type Wire struct {
	resPerMeter float64
	capPerMeter float64
}

// NewWire returns the RC description of a wire layer at temperature t for
// the reference 22 nm-class metal stack.
func NewWire(layer WireLayer, t float64) (Wire, error) {
	return NewWireScaled(layer, t, 1)
}

// NewWireScaled returns the wire at temperature t with the cross-section
// scaled by the given factor relative to the 22 nm-class stack (use
// featureSize/22nm when modeling other nodes). Capacitance per length is
// held constant — the classic result of constant-aspect-ratio wire scaling
// — while resistance per length grows as the inverse square of the scale.
func NewWireScaled(layer WireLayer, t, scale float64) (Wire, error) {
	g, ok := wireGeometries[layer]
	if !ok {
		return Wire{}, fmt.Errorf("tech: unknown wire layer %v", layer)
	}
	if err := ValidateTemperature(t); err != nil {
		return Wire{}, err
	}
	if scale <= 0 {
		return Wire{}, fmt.Errorf("tech: wire scale must be positive, got %g", scale)
	}
	rho := WireResistivity(t)
	return Wire{
		resPerMeter: rho / (g.width * scale * g.thickness * scale),
		capPerMeter: g.capPerM,
	}, nil
}

// Resistance returns the total resistance of length metres of this wire.
func (w Wire) Resistance(length float64) float64 { return w.resPerMeter * length }

// Capacitance returns the total capacitance of length metres of this wire.
func (w Wire) Capacitance(length float64) float64 { return w.capPerMeter * length }
