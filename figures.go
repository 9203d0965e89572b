package coldtall

import (
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// Fig1Row is one temperature point of Fig. 1: total LLC power of a
// simulated client CPU running SPEC2017.namd between 77 K and 387 K,
// relative to SRAM at 350 K.
type Fig1Row struct {
	// TemperatureK is the operating temperature.
	TemperatureK float64
	// RelDevicePower is LLC power without cooling, relative to 350 K.
	RelDevicePower float64
	// RelTotalPower includes the 9.65x cryocooler overhead below 200 K.
	RelTotalPower float64
}

// Fig1 regenerates Fig. 1.
func (s *Study) Fig1() ([]Fig1Row, error) {
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	tr, err := s.trafficFor(explorer.ReferenceBenchmark)
	if err != nil {
		return nil, err
	}
	points := fig1Points()
	grid, err := s.exp.EvaluateAllContext(s.context(), points, []workload.Traffic{tr})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1Row, len(points))
	for i, p := range points {
		rel := explorer.Normalize(grid[i][0], base)
		rows[i] = Fig1Row{
			TemperatureK:   p.Temperature,
			RelDevicePower: rel.RelDevicePower,
			RelTotalPower:  rel.RelPower,
		}
	}
	return rows, nil
}

// fig1Points is the Fig. 1 grid: planar SRAM at every effective
// temperature.
func fig1Points() []explorer.DesignPoint {
	temps := cryo.EffectiveTemperatures()
	points := make([]explorer.DesignPoint, len(temps))
	for i, temp := range temps {
		points[i] = explorer.SRAMAt(temp)
	}
	return points
}

// fig3Points is the Fig. 3 grid: SRAM and 3T-eDRAM at every effective
// temperature.
func fig3Points() []explorer.DesignPoint {
	return explorer.CryoSweep(cryo.EffectiveTemperatures())
}

// Fig3Row is one (cell, temperature) point of Fig. 3: array-level
// characterization of 16 MB iso-capacity SRAM and 3T-eDRAM under varying
// temperature, relative to SRAM at 350 K.
type Fig3Row struct {
	// Cell names the technology ("SRAM" or "3T-eDRAM").
	Cell string
	// TemperatureK is the operating temperature.
	TemperatureK float64
	// Array-level ratios vs the 350 K SRAM array.
	RelReadLatency, RelWriteLatency  float64
	RelReadEnergy, RelWriteEnergy    float64
	RelLeakagePower, RelRefreshPower float64
	// RetentionS is the absolute eDRAM retention (Inf for SRAM).
	RetentionS float64
}

// Fig3 regenerates Fig. 3.
func (s *Study) Fig3() ([]Fig3Row, error) {
	baseArr, err := s.exp.CharacterizeContext(s.context(), explorer.Baseline())
	if err != nil {
		return nil, err
	}
	sweep := fig3Points()
	chars, err := s.exp.CharacterizeAll(s.context(), sweep)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, len(sweep))
	for i, p := range sweep {
		r := chars[i]
		relRefresh := 0.0
		if baseArr.LeakagePower > 0 {
			relRefresh = r.RefreshPower / baseArr.LeakagePower
		}
		rows[i] = Fig3Row{
			Cell:            p.Cell.Tech.String(),
			TemperatureK:    p.Temperature,
			RelReadLatency:  r.ReadLatency / baseArr.ReadLatency,
			RelWriteLatency: r.WriteLatency / baseArr.WriteLatency,
			RelReadEnergy:   r.ReadEnergyPerBit / baseArr.ReadEnergyPerBit,
			RelWriteEnergy:  r.WriteEnergyPerBit / baseArr.WriteEnergyPerBit,
			RelLeakagePower: r.LeakagePower / baseArr.LeakagePower,
			RelRefreshPower: relRefresh,
			RetentionS:      r.Retention,
		}
	}
	return rows, nil
}

// Fig4Row is one (benchmark, cell) group of Fig. 4: total LLC power at
// 350 K, at 77 K, and at 77 K including cooling, relative to 350 K SRAM
// running namd.
type Fig4Row struct {
	Benchmark string
	Cell      string
	// Relative total LLC power for the three operating conditions.
	Rel350K, Rel77K, Rel77KCooled float64
}

// Fig4 regenerates Fig. 4 (namd and leela).
func (s *Study) Fig4() ([]Fig4Row, error) {
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	benches := []string{"namd", "leela"}
	traffics := make([]workload.Traffic, len(benches))
	for j, bench := range benches {
		if traffics[j], err = s.trafficFor(bench); err != nil {
			return nil, err
		}
	}
	points := fig4Points()
	grid, err := s.exp.EvaluateAllContext(s.context(), points, traffics)
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for j, bench := range benches {
		for m := 0; m < len(points); m += 2 {
			warm, cold := grid[m][j], grid[m+1][j]
			rows = append(rows, Fig4Row{
				Benchmark:    bench,
				Cell:         warm.Point.Cell.Tech.String(),
				Rel350K:      warm.DevicePower / base.TotalPower,
				Rel77K:       cold.DevicePower / base.TotalPower,
				Rel77KCooled: cold.TotalPower / base.TotalPower,
			})
		}
	}
	return rows, nil
}

// fig4Points is the Fig. 4 grid. Points pair up per cell: [2m] at 350 K,
// [2m+1] at 77 K.
func fig4Points() []explorer.DesignPoint {
	var points []explorer.DesignPoint
	for _, mk := range []func(float64) explorer.DesignPoint{explorer.SRAMAt, explorer.EDRAMAt} {
		points = append(points, mk(tech.TempHot350), mk(tech.TempCryo77))
	}
	return points
}

// TrafficRow is one (design point, benchmark) point of the Fig. 5 / Fig. 7
// scatter plots: traffic on the X axis, relative power and latency on Y.
type TrafficRow struct {
	// Label names the design point.
	Label string
	// Cell, TemperatureK, Dies identify it.
	Cell         string
	TemperatureK float64
	Dies         int
	// Benchmark and its traffic rates.
	Benchmark    string
	ReadsPerSec  float64
	WritesPerSec float64
	// RelDevicePower and RelTotalPower are vs 350 K SRAM running namd
	// (the paper's reference normalization); RelLatency likewise.
	RelDevicePower float64
	RelTotalPower  float64
	RelLatency     float64
	// Slowdown is the paper's performance check: relative total latency
	// above 1 versus 350 K SRAM on the same benchmark, or bandwidth
	// shortfall.
	Slowdown bool
}

// Fig5 regenerates Fig. 5: SRAM and 3T-eDRAM at 77 K and 350 K across the
// full SPECrate 2017 suite.
func (s *Study) Fig5() ([]TrafficRow, error) {
	return s.trafficStudyFor(fig5Points(), workload.SortedByReads())
}

// fig5Points is the Fig. 5 design-point set (volatile cells at both
// operating temperatures), shared with per-workload artifact rendering.
func fig5Points() []explorer.DesignPoint {
	return []explorer.DesignPoint{
		explorer.SRAMAt(tech.TempHot350), explorer.EDRAMAt(tech.TempHot350),
		explorer.SRAMAt(tech.TempCryo77), explorer.EDRAMAt(tech.TempCryo77),
	}
}

// Fig7 regenerates Fig. 7: the 2D/3D eNVM sweep (SRAM, PCM, STT-RAM, RRAM;
// optimistic and pessimistic; 1-8 dies) at 350 K across the suite.
func (s *Study) Fig7() ([]TrafficRow, error) {
	points, err := explorer.ENVMSweep()
	if err != nil {
		return nil, err
	}
	return s.trafficStudyFor(points, workload.SortedByReads())
}

// trafficStudyFor evaluates points under traffics, normalized to the
// namd/350 K-SRAM baseline: Fig. 5 / 7 over the static suite ascending by
// read rate, per-workload artifacts over one ingested workload, RunConfig
// over a study config's workloads. The points×traffics grid fans out
// through the explorer's worker pool; rows keep the serial order (each
// point's traffics in input order).
func (s *Study) trafficStudyFor(points []explorer.DesignPoint, traffics []workload.Traffic) ([]TrafficRow, error) {
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), points, traffics)
	if err != nil {
		return nil, err
	}
	rows := make([]TrafficRow, 0, len(points)*len(traffics))
	for i, p := range points {
		for j, tr := range traffics {
			ev := grid[i][j]
			rel := explorer.Normalize(ev, base)
			rows = append(rows, TrafficRow{
				Label:          p.Label,
				Cell:           p.Cell.Tech.String(),
				TemperatureK:   p.Temperature,
				Dies:           p.Dies,
				Benchmark:      tr.Benchmark,
				ReadsPerSec:    tr.ReadsPerSec,
				WritesPerSec:   tr.WritesPerSec,
				RelDevicePower: rel.RelDevicePower,
				RelTotalPower:  rel.RelPower,
				RelLatency:     rel.RelLatency,
				Slowdown:       ev.Slowdown,
			})
		}
	}
	return rows, nil
}

// Fig6Row is one design point of Fig. 6: array-level characterization of 2D
// and 3D eNVMs at 350 K relative to 16 MB 2D SRAM.
type Fig6Row struct {
	// Label names the point ("8-die PCM (optimistic)").
	Label  string
	Tech   string
	Corner string
	Dies   int
	// Array-level ratios vs the 1-die 350 K SRAM array.
	RelArea                         float64
	RelReadEnergy, RelWriteEnergy   float64
	RelReadLatency, RelWriteLatency float64
	RelLeakagePower                 float64
}

// Fig6 regenerates Fig. 6.
func (s *Study) Fig6() ([]Fig6Row, error) {
	baseArr, err := s.exp.CharacterizeContext(s.context(), explorer.Baseline())
	if err != nil {
		return nil, err
	}
	points, err := explorer.ENVMSweep()
	if err != nil {
		return nil, err
	}
	chars, err := s.exp.CharacterizeAll(s.context(), points)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(points))
	for i, p := range points {
		r := chars[i]
		rows[i] = Fig6Row{
			Label:           p.Label,
			Tech:            p.Cell.Tech.String(),
			Corner:          cornerOf(p.Cell),
			Dies:            p.Dies,
			RelArea:         r.FootprintM2 / baseArr.FootprintM2,
			RelReadEnergy:   r.ReadEnergyPerBit / baseArr.ReadEnergyPerBit,
			RelWriteEnergy:  r.WriteEnergyPerBit / baseArr.WriteEnergyPerBit,
			RelReadLatency:  r.ReadLatency / baseArr.ReadLatency,
			RelWriteLatency: r.WriteLatency / baseArr.WriteLatency,
			RelLeakagePower: r.LeakagePower / baseArr.LeakagePower,
		}
	}
	return rows, nil
}
