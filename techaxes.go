package coldtall

import (
	"coldtall/internal/cell"
	"coldtall/internal/cryo"
	"coldtall/internal/dram"
	"coldtall/internal/explorer"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// The technology-backend extension studies: the three sweep axes the
// registry's gaincell/deepcryo/freqsweep artifacts are rendered from.
//
//   - GainCellStudy compares the monolithically-stackable oxide-
//     semiconductor gain cell (arXiv 2503.06304 class) against 3T-eDRAM
//     across operating temperatures and stacking degrees.
//   - DeepCryoSweep pushes the volatile cells below 77 K, where the device
//     corner plateaus but the Carnot-scaled cryocooler overhead explodes
//     (arXiv 2408.03308 regime).
//   - FrequencySweep treats the core clock as a first-class axis: per-point
//     frequency scales both the cycle the AMAT model converts latencies
//     with and the LLC traffic the cores generate.

// GainCellRow is one (design point, temperature) cell of the gain-cell
// study, normalized to 350 K 1-die SRAM on namd like every figure.
type GainCellRow struct {
	// Label names the point; Cell/Corner/Dies/TemperatureK identify it.
	Label        string
	Cell         string
	Corner       string
	Dies         int
	TemperatureK float64
	// RetentionS is the absolute retention at the operating corner — the
	// axis the Arrhenius model moves (seconds at 350 K, hours at 77 K).
	RetentionS float64
	// Relative metrics vs the 350 K SRAM baseline on namd.
	RelDevicePower float64
	RelTotalPower  float64
	RelLatency     float64
	RelArea        float64
	// Slowdown is the paper's bandwidth/latency check.
	Slowdown bool
}

// gainCellTemps are the study's operating corners: the paper's hot design
// point, room temperature, and the liquid-nitrogen corner.
func gainCellTemps() []float64 {
	return []float64{tech.TempHot350, tech.TempRoom, tech.TempCryo77}
}

// gainCellPoints builds the sweep: 3T-eDRAM as the incumbent dynamic cell,
// and both OS gain-cell tentpole corners monolithically stacked at 1, 2 and
// 4 dies (the monolithic style's stacking range).
func gainCellPoints() ([]explorer.DesignPoint, error) {
	var pts []explorer.DesignPoint
	for _, temp := range gainCellTemps() {
		pts = append(pts, explorer.EDRAMAt(temp))
		for _, corner := range cell.Corners() {
			for _, dies := range []int{1, 2, 4} {
				p, err := explorer.GainCellAt(corner, temp, dies)
				if err != nil {
					return nil, err
				}
				pts = append(pts, p)
			}
		}
	}
	return pts, nil
}

// GainCellStudy evaluates the oxide-semiconductor gain-cell LLC against
// 3T-eDRAM under the reference benchmark.
func (s *Study) GainCellStudy() ([]GainCellRow, error) {
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	tr, err := s.workloads.Traffic(explorer.ReferenceBenchmark)
	if err != nil {
		return nil, err
	}
	points, err := gainCellPoints()
	if err != nil {
		return nil, err
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), points, []workload.Traffic{tr})
	if err != nil {
		return nil, err
	}
	rows := make([]GainCellRow, len(points))
	for i, p := range points {
		ev := grid[i][0]
		rel := explorer.Normalize(ev, base)
		rows[i] = GainCellRow{
			Label:          p.Label,
			Cell:           p.Cell.Tech.String(),
			Corner:         cornerOf(p.Cell),
			Dies:           p.Dies,
			TemperatureK:   p.Temperature,
			RetentionS:     ev.Array.Retention,
			RelDevicePower: rel.RelDevicePower,
			RelTotalPower:  rel.RelPower,
			RelLatency:     rel.RelLatency,
			RelArea:        rel.RelArea,
			Slowdown:       ev.Slowdown,
		}
	}
	return rows, nil
}

// cornerOf recovers the tentpole corner from a composite cell's name
// (builtin cells have none).
func cornerOf(c cell.Cell) string {
	for _, corner := range cell.Corners() {
		if len(c.Name) > len(corner.String()) &&
			c.Name[len(c.Name)-len(corner.String()):] == corner.String() {
			return corner.String()
		}
	}
	return ""
}

// DeepCryoRow is one (cell, temperature) point of the sub-77 K sweep.
type DeepCryoRow struct {
	Cell         string
	TemperatureK float64
	// CoolerWPerW is the cryocooler input power per watt removed at this
	// temperature (0 above the cooling threshold): flat at the paper's
	// 9.65 W/W down to 77 K, Carnot-scaled below it.
	CoolerWPerW float64
	// Relative metrics vs the 350 K SRAM baseline on namd.
	RelDevicePower float64
	RelTotalPower  float64
	RelLatency     float64
}

// DeepCryoSweep evaluates SRAM and 3T-eDRAM from 4 K to 300 K under the
// reference benchmark — Fig. 1 extended into the deep-cryogenic regime,
// where device power keeps falling but the Carnot-scaled cooler overhead
// overwhelms it.
func (s *Study) DeepCryoSweep() ([]DeepCryoRow, error) {
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	tr, err := s.workloads.Traffic(explorer.ReferenceBenchmark)
	if err != nil {
		return nil, err
	}
	sweep := deepCryoPoints()
	grid, err := s.exp.EvaluateAllContext(s.context(), sweep, []workload.Traffic{tr})
	if err != nil {
		return nil, err
	}
	cooling := s.exp.Cooling
	rows := make([]DeepCryoRow, len(sweep))
	for i, p := range sweep {
		rel := explorer.Normalize(grid[i][0], base)
		wPerW := 0.0
		if cooling.Applies(p.Temperature) {
			wPerW = cooling.Class.OverheadAt(p.Temperature)
		}
		rows[i] = DeepCryoRow{
			Cell:           p.Cell.Tech.String(),
			TemperatureK:   p.Temperature,
			CoolerWPerW:    wPerW,
			RelDevicePower: rel.RelDevicePower,
			RelTotalPower:  rel.RelPower,
			RelLatency:     rel.RelLatency,
		}
	}
	return rows, nil
}

// deepCryoPoints is the deep-cryogenic grid: SRAM and 3T-eDRAM at every
// cryo.DeepTemperatures point, 4 K to 300 K.
func deepCryoPoints() []explorer.DesignPoint {
	return explorer.CryoSweep(cryo.DeepTemperatures())
}

// FreqRow is one (design point, frequency) cell of the frequency sweep.
type FreqRow struct {
	// Label names the LLC design point (without the clock suffix).
	Label        string
	Cell         string
	TemperatureK float64
	// FrequencyHz is the core clock of this row.
	FrequencyHz float64
	// RelIPC is IPC vs the SRAM-LLC machine at the same clock (what the
	// LLC choice alone does to the CPU).
	RelIPC float64
	// RelPerf folds the clock back in: frequency x IPC vs the 5 GHz
	// SRAM-LLC baseline — the end-to-end performance axis.
	RelPerf float64
	// RelTotalPower is LLC power (cooling included) vs the 350 K SRAM
	// baseline on the same benchmark's 5 GHz traffic.
	RelTotalPower float64
	// Slowdown is the bandwidth/latency check at this clock's traffic.
	Slowdown bool
}

// SweepFrequencies returns the frequency axis of the freqsweep artifact:
// 1 GHz to 10 GHz around the paper's 5 GHz design point.
func SweepFrequencies() []float64 {
	return []float64{1e9, 2.5e9, 5e9, 7.5e9, 1e10}
}

// freqSweepPoints is the frequency sweep's grid: 350 K SRAM, then 77 K
// 3T-eDRAM, each at every SweepFrequencies clock.
func freqSweepPoints() []explorer.DesignPoint {
	var points []explorer.DesignPoint
	for _, bp := range []explorer.DesignPoint{explorer.SRAMAt(tech.TempHot350), explorer.EDRAMAt(tech.TempCryo77)} {
		for _, f := range SweepFrequencies() {
			p := bp
			p.FrequencyHz = f
			points = append(points, p)
		}
	}
	return points
}

// FrequencySweep evaluates the 350 K SRAM incumbent and the 77 K 3T-eDRAM
// cryogenic point across core clocks under the mcf workload (the
// read-traffic maximum, where LLC latency moves the CPU most). Per-point
// frequency scales the generated traffic and the AMAT cycle conversion;
// performance is reported both at iso-clock (rel_ipc) and end-to-end
// against the 5 GHz baseline (rel_perf).
func (s *Study) FrequencySweep() ([]FreqRow, error) {
	const bench = "mcf"
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	tr, err := s.workloads.Traffic(bench)
	if err != nil {
		return nil, err
	}
	prof, err := workload.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	mem, err := dram.New(dram.DDR4(), 300)
	if err != nil {
		return nil, err
	}
	points := freqSweepPoints()
	grid, err := s.exp.EvaluateAllContext(s.context(), points, []workload.Traffic{tr})
	if err != nil {
		return nil, err
	}
	rows := make([]FreqRow, len(points))
	for i, p := range points {
		ev := grid[i][0]
		imp, err := s.exp.SystemImpact(s.context(), p, prof, mem)
		if err != nil {
			return nil, err
		}
		rows[i] = FreqRow{
			Label:         p.Label,
			Cell:          p.Cell.Tech.String(),
			TemperatureK:  p.Temperature,
			FrequencyHz:   p.Frequency(),
			RelIPC:        imp.RelIPC,
			RelPerf:       imp.RelIPC * p.Frequency() / workload.DefaultFrequencyHz,
			RelTotalPower: ev.TotalPower / base.TotalPower,
			Slowdown:      ev.Slowdown,
		}
	}
	return rows, nil
}
