package explorer

import (
	"fmt"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/workload"
)

// PointSpec is the wire-level description of a design point the CLI flags
// and the HTTP API share: technology and corner by name, stacking degree,
// operating temperature, and optional style/capacity overrides. Parsing a
// spec applies the same defaults everywhere, so the spec doubles as the
// canonical form requests are cache-keyed on.
type PointSpec struct {
	// Cell names the technology (SRAM, 3T-eDRAM, PCM, STT-RAM, RRAM, ...).
	Cell string `json:"cell"`
	// Corner selects the tentpole corner for eNVMs ("optimistic" when
	// empty); builtin cells ignore it.
	Corner string `json:"corner,omitempty"`
	// Dies is the stacking degree (1 when zero).
	Dies int `json:"dies,omitempty"`
	// TemperatureK is the operating temperature (350 when zero).
	TemperatureK float64 `json:"temperature_k,omitempty"`
	// Style names the 3D integration method ("TSV" when empty).
	Style string `json:"style,omitempty"`
	// CapacityBytes overrides the paper's 16 MiB LLC when positive.
	CapacityBytes int64 `json:"capacity_bytes,omitempty"`
	// FrequencyHz is the core clock (the Table I 5 GHz when zero).
	FrequencyHz float64 `json:"frequency_hz,omitempty"`
}

// withDefaults returns the spec with zero values replaced by the study's
// defaults, so equal effective points canonicalize to equal specs.
func (ps PointSpec) withDefaults() PointSpec {
	if ps.Corner == "" {
		ps.Corner = cell.Optimistic.String()
	}
	if ps.Dies == 0 {
		ps.Dies = 1
	}
	if ps.TemperatureK == 0 {
		ps.TemperatureK = 350
	}
	if ps.Style == "" {
		ps.Style = stack.TSVStack.String()
	}
	if ps.FrequencyHz == 0 {
		ps.FrequencyHz = workload.DefaultFrequencyHz
	}
	return ps
}

// ParsePoint resolves a spec into a validated design point. The label
// matches the CLI sweep convention ("8-die PCM @350K").
func ParsePoint(spec PointSpec) (DesignPoint, error) {
	spec = spec.withDefaults()
	tech, err := cell.ParseTechnology(spec.Cell)
	if err != nil {
		return DesignPoint{}, err
	}
	var c cell.Cell
	switch tech {
	case cell.SRAM, cell.EDRAM3T, cell.EDRAM1T1C:
		c, err = cell.Builtin(tech)
	default:
		var corner cell.Corner
		corner, err = parseCorner(spec.Corner)
		if err == nil {
			c, err = cell.Tentpole(tech, corner)
		}
	}
	if err != nil {
		return DesignPoint{}, err
	}
	style, err := stack.ParseStyle(spec.Style)
	if err != nil {
		return DesignPoint{}, err
	}
	label := fmt.Sprintf("%d-die %s @%.0fK", spec.Dies, c.Name, spec.TemperatureK)
	if spec.FrequencyHz != workload.DefaultFrequencyHz {
		label += fmt.Sprintf(" @%.2gGHz", spec.FrequencyHz/1e9)
	}
	p := DesignPoint{
		Label:         label,
		Cell:          c,
		Temperature:   spec.TemperatureK,
		Dies:          spec.Dies,
		Style:         style,
		CapacityBytes: spec.CapacityBytes,
		FrequencyHz:   spec.FrequencyHz,
	}
	if err := p.Validate(); err != nil {
		return DesignPoint{}, err
	}
	return p, nil
}

// parseCorner maps a corner name to a tentpole corner.
func parseCorner(s string) (cell.Corner, error) {
	for _, c := range cell.Corners() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("explorer: unknown corner %q (want optimistic or pessimistic)", s)
}
