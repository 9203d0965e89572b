// Package explorer is the cross-stack design-space-exploration engine — the
// rebuilt NVMExplorer core of the paper. It combines array-level
// characterization (internal/array, standing in for NVSim/Destiny/CryoMEM)
// with per-benchmark LLC traffic (internal/workload, standing in for
// Sniper) and the cryogenic cooling model (internal/cryo) to produce the
// application-level metrics the paper plots: total LLC power (with and
// without cooling), total LLC latency, and area, all relative to 350 K
// SRAM, plus endurance-aware lifetime and slowdown checks.
package explorer

import (
	"fmt"
	"strconv"

	"coldtall/internal/array"
	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// Core-clock bounds for the frequency axis. The paper's system runs at a
// fixed 5 GHz (Table I); the sweep axis admits anything from a deeply
// throttled 100 MHz part to an aggressive 20 GHz cryo-boosted clock.
const (
	MinFrequencyHz = 1e8
	MaxFrequencyHz = 2e10
)

// DesignPoint is one LLC technology choice: a cell, an operating
// temperature and a stacking degree.
type DesignPoint struct {
	// Label is a short display name ("77K 3T-eDRAM", "8-die PCM (opt)").
	Label string
	// Cell is the bit-cell design point.
	Cell cell.Cell
	// Temperature is the operating temperature in kelvin.
	Temperature float64
	// Dies is the stacking degree (1 = 2D).
	Dies int
	// Style is the 3D integration method.
	Style stack.Style
	// CapacityBytes overrides the LLC capacity; 0 keeps the paper's
	// 16 MiB (Table I).
	CapacityBytes int64
	// Node overrides the process technology; the zero value keeps the
	// paper's 22 nm HP node.
	Node tech.Node
	// FrequencyHz overrides the core clock; 0 keeps the paper's 5 GHz
	// (Table I). The clock scales both the cycle time the AMAT model
	// converts latencies with and the LLC traffic the workloads generate.
	FrequencyHz float64
}

// Frequency returns the point's core clock in hertz (the Table I 5 GHz
// default unless overridden).
func (p DesignPoint) Frequency() float64 {
	if p.FrequencyHz > 0 {
		return p.FrequencyHz
	}
	return workload.DefaultFrequencyHz
}

// Validate reports configuration errors.
func (p DesignPoint) Validate() error {
	if p.Label == "" {
		return fmt.Errorf("explorer: design point needs a label")
	}
	if err := p.Cell.Validate(); err != nil {
		return err
	}
	if err := tech.ValidateTemperature(p.Temperature); err != nil {
		return err
	}
	if p.FrequencyHz != 0 && (p.FrequencyHz < MinFrequencyHz || p.FrequencyHz > MaxFrequencyHz) {
		return fmt.Errorf("explorer: frequency %.3g Hz outside supported range [%.0e, %.0e]",
			p.FrequencyHz, MinFrequencyHz, MaxFrequencyHz)
	}
	return (stack.Config{Dies: p.Dies, Style: p.Style}).Validate()
}

// ArrayConfig lowers the point into an array configuration using the
// paper's Table I LLC parameters (with an optional capacity override). It
// is what CharacterizeContext optimizes; callers wanting the full Pareto
// front rather than the single optimum pass it to array.ParetoContext.
func (p DesignPoint) ArrayConfig() array.Config { return p.arrayConfig() }

// arrayConfig lowers the point into an array configuration using the
// paper's Table I LLC parameters (with an optional capacity override).
func (p DesignPoint) arrayConfig() array.Config {
	cfg := array.DefaultLLC(p.Cell, p.Temperature, stack.Config{Dies: p.Dies, Style: p.Style})
	if p.CapacityBytes > 0 {
		cfg.CapacityBytes = p.CapacityBytes
	}
	if p.Node.Name != "" {
		cfg.Node = p.Node
	}
	return cfg
}

// Key returns a stable identity for caching. The temperature and a
// non-default clock are spelled exactly (shortest round-trip form), so
// 349.9 K and 350 K, or 5.0001 GHz and 5.00012 GHz, never share an entry,
// while integer temperatures and the freqsweep clocks keep their
// historical spelling. Points at the default 5 GHz clock keep the
// historical key shape (no frequency segment).
//
// The key is the char| store address, so its bytes must never change
// (TestKeyMatchesSprintf pins them); it is appended into one buffer
// because it is built on every request.
func (p DesignPoint) Key() string {
	var buf [128]byte
	k := append(buf[:0], p.Cell.Name...)
	k = append(k, '|')
	k = append(k, p.Cell.Tech.String()...)
	k = append(k, '|')
	k = strconv.AppendFloat(k, p.Temperature, 'g', -1, 64)
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(p.Dies), 10)
	k = append(k, '|')
	k = append(k, p.Style.String()...)
	k = append(k, '|')
	k = strconv.AppendInt(k, p.CapacityBytes, 10)
	k = append(k, '|')
	k = append(k, p.Node.Name...)
	if f := p.Frequency(); f != workload.DefaultFrequencyHz {
		k = append(k, "|f"...)
		k = strconv.AppendFloat(k, f, 'g', -1, 64)
	}
	return string(k)
}

// Capacity returns the point's LLC capacity in bytes (the Table I 16 MiB
// default unless overridden).
func (p DesignPoint) Capacity() int64 {
	if p.CapacityBytes > 0 {
		return p.CapacityBytes
	}
	return 16 << 20
}

// WithNode returns a copy of the point on a different process node.
func (p DesignPoint) WithNode(n tech.Node) DesignPoint {
	out := p
	out.Node = n
	out.Label = fmt.Sprintf("%s [%s]", p.Label, n.Name)
	return out
}

// String returns the label.
func (p DesignPoint) String() string { return p.Label }

// Point constructors for the standard studies.

// SRAMAt returns planar SRAM at the given temperature.
func SRAMAt(temperature float64) DesignPoint {
	return DesignPoint{
		Label:       fmt.Sprintf("%.0fK SRAM", temperature),
		Cell:        cell.NewSRAM6T(),
		Temperature: temperature,
		Dies:        1,
		Style:       stack.TSVStack,
	}
}

// EDRAMAt returns planar 3T-eDRAM at the given temperature.
func EDRAMAt(temperature float64) DesignPoint {
	return DesignPoint{
		Label:       fmt.Sprintf("%.0fK 3T-eDRAM", temperature),
		Cell:        cell.NewEDRAM3T(),
		Temperature: temperature,
		Dies:        1,
		Style:       stack.TSVStack,
	}
}

// GainCellAt returns a monolithically-stacked oxide-semiconductor
// gain-cell LLC at the given tentpole corner, temperature and die count.
// Monolithic integration is the gain cell's home turf: the BEOL-compatible
// IGZO transistors are fabricated directly in the upper metal layers, so
// the stacking style defaults to Monolithic rather than TSV.
func GainCellAt(corner cell.Corner, temperature float64, dies int) (DesignPoint, error) {
	c, err := cell.Tentpole(cell.OSGC, corner)
	if err != nil {
		return DesignPoint{}, err
	}
	return DesignPoint{
		Label:       fmt.Sprintf("%d-die OS-GC (%s) @%.0fK", dies, corner, temperature),
		Cell:        c,
		Temperature: temperature,
		Dies:        dies,
		Style:       stack.Monolithic,
	}, nil
}

// Baseline returns the universal normalization point: 1-die SRAM at 350 K.
func Baseline() DesignPoint { return SRAMAt(tech.TempHot350) }

// Stacked returns a 350 K design point for an eNVM tentpole corner (or
// SRAM, which ignores the corner) at the given die count.
func Stacked(t cell.Technology, corner cell.Corner, dies int) (DesignPoint, error) {
	var c cell.Cell
	var err error
	if t == cell.SRAM {
		c = cell.NewSRAM6T()
	} else if t == cell.EDRAM3T {
		c = cell.NewEDRAM3T()
	} else {
		c, err = cell.Tentpole(t, corner)
		if err != nil {
			return DesignPoint{}, err
		}
	}
	label := fmt.Sprintf("%d-die %s", dies, t)
	if t != cell.SRAM && t != cell.EDRAM3T {
		label = fmt.Sprintf("%d-die %s (%s)", dies, t, corner)
	}
	return DesignPoint{
		Label:       label,
		Cell:        c,
		Temperature: tech.TempHot350,
		Dies:        dies,
		Style:       stack.TSVStack,
	}, nil
}

// CryoSweep returns SRAM and 3T-eDRAM across the paper's temperature range
// (Figs. 1 and 3).
func CryoSweep(temperatures []float64) []DesignPoint {
	var out []DesignPoint
	for _, t := range temperatures {
		out = append(out, SRAMAt(t), EDRAMAt(t))
	}
	return out
}

// ENVMSweep returns the Fig. 6/7 design points: SRAM plus optimistic and
// pessimistic PCM, STT-RAM and RRAM at 1, 2, 4 and 8 dies, all at 350 K.
func ENVMSweep() ([]DesignPoint, error) {
	var out []DesignPoint
	for _, dies := range []int{1, 2, 4, 8} {
		p, err := Stacked(cell.SRAM, cell.Optimistic, dies)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		for _, t := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
			for _, c := range cell.Corners() {
				p, err := Stacked(t, c, dies)
				if err != nil {
					return nil, err
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// TableIICandidates returns the design points Table II selects among: the
// 77 K cryogenic options plus the full 350 K eNVM/SRAM stacking sweep
// (optimistic corners, as the paper's table reports technology winners).
func TableIICandidates() ([]DesignPoint, error) {
	pts := []DesignPoint{SRAMAt(tech.TempCryo77), EDRAMAt(tech.TempCryo77), Baseline()}
	for _, dies := range []int{1, 2, 4, 8} {
		for _, t := range []cell.Technology{cell.SRAM, cell.PCM, cell.STTRAM, cell.RRAM} {
			if t == cell.SRAM && dies == 1 {
				continue // already present as the baseline
			}
			p, err := Stacked(t, cell.Optimistic, dies)
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
		}
	}
	return pts, nil
}
