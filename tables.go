package coldtall

import (
	"fmt"

	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/sim"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// Table1Row is one CPU-model parameter of Table I.
type Table1Row struct {
	Parameter, Value string
}

// Table1 returns the paper's Table I (key CPU model parameters).
func Table1() []Table1Row {
	cfg := sim.TableIConfig()
	rows := []Table1Row{
		{"Class", "Desktop (based on Intel Skylake)"},
		{"Num. cores", fmt.Sprintf("%d", workload.Cores)},
		{"Process node", "22nm"},
		{"Frequency", fmt.Sprintf("%.0f GHz", workload.DefaultFrequencyHz/1e9)},
	}
	for _, l := range cfg.Levels {
		name := map[string]string{"L1D": "L1D$", "L2": "L2$", "LLC": "L3$"}[l.Name]
		val := fmt.Sprintf("%d KiB", l.SizeBytes>>10)
		if l.Name == "LLC" {
			val = fmt.Sprintf("shared %d MiB, %d ways", l.SizeBytes>>20, l.Ways)
		}
		rows = append(rows, Table1Row{name, val})
	}
	// The paper lists L1I alongside L1D; the simulator replays a unified
	// data-side stream, so L1I is reported at its architectural size.
	rows = append(rows[:4], append([]Table1Row{{"L1I$", "32 KiB"}}, rows[4:]...)...)
	return rows
}

// Table2Row is one Table II cell in display form.
type Table2Row struct {
	// Band is the read-traffic regime.
	Band string
	// Objective is the design target column.
	Objective string
	// Winner and Alternative are display labels ("-" when no alt).
	Winner, Alternative string
	// Winner3D and Alternative3D restrict candidates to the 350 K
	// family (the paper's performance column; see EXPERIMENTS.md).
	Winner3D, Alternative3D string
	// EnduranceConcern marks wear-limited winners.
	EnduranceConcern bool
	// Metric is the winner's objective value (W, aggregate latency, or
	// m^2 depending on the objective).
	Metric float64
}

// Table2 regenerates Table II: the optimal LLC per traffic band per design
// target, with endurance-aware alternatives, in both the unified view and
// the 350 K ("Destiny-family") view the paper's performance column uses.
func (s *Study) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range workload.Bands() {
		for _, obj := range explorer.Objectives() {
			// The first ranking characterizes every candidate; the rest
			// evaluate on the warm cache.
			c, err := s.exp.OptimalChoice(s.context(), b, obj)
			if err != nil {
				return nil, err
			}
			c3, err := s.exp.Optimal3DChoice(s.context(), b, obj)
			if err != nil {
				return nil, err
			}
			row := Table2Row{
				Band:             b.String(),
				Objective:        obj.String(),
				Winner:           c.Winner.Point.Label,
				Alternative:      "-",
				Winner3D:         c3.Winner.Point.Label,
				Alternative3D:    "-",
				EnduranceConcern: c.EnduranceConcern,
			}
			switch obj {
			case explorer.ObjPerformance:
				row.Metric = c.Winner.AggregateLatency
			case explorer.ObjArea:
				row.Metric = c.Winner.Array.FootprintM2
			default:
				row.Metric = c.Winner.TotalPower
			}
			if c.Alternative != nil {
				row.Alternative = c.Alternative.Point.Label
			}
			if c3.Alternative != nil {
				row.Alternative3D = c3.Alternative.Point.Label
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// CoolingRow is one point of the Section III-C cooling-overhead
// sensitivity: a cooler class applied to 77 K 3T-eDRAM under one
// benchmark's traffic, relative to the 350 K SRAM baseline for that same
// benchmark.
type CoolingRow struct {
	// Cooler names the capacity class.
	Cooler string
	// Overhead is watts of cooler input per watt removed.
	Overhead float64
	// Benchmark and its read rate.
	Benchmark   string
	ReadsPerSec float64
	// RelTotalPower is cooled 77 K 3T-eDRAM power over 350 K SRAM power
	// on the same benchmark (< 1 means cryogenic operation wins).
	RelTotalPower float64
}

// CoolingSweep regenerates the cooling-overhead sensitivity across three
// representative benchmarks (one per traffic band).
func (s *Study) CoolingSweep() ([]CoolingRow, error) {
	benches := []string{"povray", "xalancbmk", "lbm"}
	traffics := make([]workload.Traffic, len(benches))
	for j, bench := range benches {
		tr, err := s.workloads.Traffic(bench)
		if err != nil {
			return nil, err
		}
		traffics[j] = tr
	}
	// Both design points (the baseline and 77 K 3T-eDRAM) are
	// cooling-independent, so the per-class sub-studies share the parent's
	// characterization cache and optimize each point once across the
	// whole sweep; only the first class's sweep runs the optimizer.
	points := coolingPoints()
	var rows []CoolingRow
	for _, cls := range cryo.Classes() {
		study, err := s.withCooling(cryo.Cooling{Class: cls, ThresholdK: 200})
		if err != nil {
			return nil, err
		}
		grid, err := study.exp.EvaluateAllContext(study.context(), points, traffics)
		if err != nil {
			return nil, err
		}
		for j, tr := range traffics {
			warm, cold := grid[0][j], grid[1][j]
			rows = append(rows, CoolingRow{
				Cooler:        cls.String(),
				Overhead:      cls.Overhead(),
				Benchmark:     benches[j],
				ReadsPerSec:   tr.ReadsPerSec,
				RelTotalPower: cold.TotalPower / warm.TotalPower,
			})
		}
	}
	return rows, nil
}

// coolingPoints is the cooling sweep's grid: the baseline (warm) and 77 K
// 3T-eDRAM (cold).
func coolingPoints() []explorer.DesignPoint {
	return []explorer.DesignPoint{explorer.Baseline(), explorer.EDRAMAt(tech.TempCryo77)}
}
