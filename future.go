package coldtall

import (
	"fmt"

	"coldtall/internal/cell"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// The paper's Section VI proposes two follow-on studies; both are
// implemented here. First, temperature as a continuous design knob (see
// Example_cryoSweep). Second — "a future interesting work would be to
// combine both 3D stacking with cryogenic computing to achieve both highly
// performant and low power/temperature chips for the broadest range of
// workload traffic patterns" — the ColdAndTall study below.

// ColdAndTallRow is one (cell, dies, temperature) point of the combined
// study evaluated under one benchmark's traffic.
type ColdAndTallRow struct {
	// Label names the design point ("8-die 3T-eDRAM @77K").
	Label        string
	Cell         string
	Dies         int
	TemperatureK float64
	Benchmark    string
	// RelTotalPower (incl. cooling) and RelLatency are vs the 350 K
	// 1-die SRAM baseline on the reference benchmark.
	RelTotalPower float64
	RelLatency    float64
	// RelArea is the per-die footprint vs the baseline.
	RelArea float64
}

// ColdAndTall crosses the volatile technologies (SRAM, 3T-eDRAM — the
// cells that remain functional at 77 K) with stacking degrees 1-8 and both
// operating temperatures, under the given benchmark. The eNVMs stay at
// 350 K: phase-change dynamics and MTJ switching degrade at cryogenic
// temperatures, so the paper's combination question is about cold volatile
// stacks versus warm non-volatile stacks.
func (s *Study) ColdAndTall(benchmark string) ([]ColdAndTallRow, error) {
	tr, err := s.workloads.Traffic(benchmark)
	if err != nil {
		return nil, err
	}
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	points, err := coldAndTallPoints()
	if err != nil {
		return nil, err
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), points, []workload.Traffic{tr})
	if err != nil {
		return nil, err
	}
	rows := make([]ColdAndTallRow, len(points))
	for i, p := range points {
		rel := explorer.Normalize(grid[i][0], base)
		rows[i] = ColdAndTallRow{
			Label:         p.Label,
			Cell:          p.Cell.Tech.String(),
			Dies:          p.Dies,
			TemperatureK:  p.Temperature,
			Benchmark:     benchmark,
			RelTotalPower: rel.RelPower,
			RelLatency:    rel.RelLatency,
			RelArea:       rel.RelArea,
		}
	}
	return rows, nil
}

// coldAndTallPoints is the combined study's grid: SRAM and 3T-eDRAM at 1,
// 2, 4 and 8 TSV-stacked dies, each at 350 K and 77 K.
func coldAndTallPoints() ([]explorer.DesignPoint, error) {
	var points []explorer.DesignPoint
	for _, tc := range []cell.Technology{cell.SRAM, cell.EDRAM3T} {
		c, err := cell.Builtin(tc)
		if err != nil {
			return nil, err
		}
		for _, dies := range []int{1, 2, 4, 8} {
			for _, temp := range []float64{tech.TempHot350, tech.TempCryo77} {
				points = append(points, explorer.DesignPoint{
					Label:       fmt.Sprintf("%d-die %s @%.0fK", dies, tc, temp),
					Cell:        c,
					Temperature: temp,
					Dies:        dies,
					Style:       stack.TSVStack,
				})
			}
		}
	}
	return points, nil
}

// ColdAndTallBest returns, for one benchmark, the combined-study winner by
// total power and by latency, plus the best warm eNVM point for contrast.
type ColdAndTallSummary struct {
	Benchmark string
	// PowerWinner and LatencyWinner come from the cold-and-tall grid.
	PowerWinner, LatencyWinner ColdAndTallRow
	// WarmENVMPower is the best 350 K eNVM total power (relative), for
	// the "cold or tall?" verdict.
	WarmENVMPower float64
	WarmENVMLabel string
}

// ColdAndTallVerdict runs the combined study and answers the title
// question for the benchmark: is the best LLC cold, tall, or both?
func (s *Study) ColdAndTallVerdict(benchmark string) (ColdAndTallSummary, error) {
	rows, err := s.ColdAndTall(benchmark)
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	sum := ColdAndTallSummary{Benchmark: benchmark, PowerWinner: rows[0], LatencyWinner: rows[0]}
	for _, r := range rows[1:] {
		if r.RelTotalPower < sum.PowerWinner.RelTotalPower {
			sum.PowerWinner = r
		}
		if r.RelLatency < sum.LatencyWinner.RelLatency {
			sum.LatencyWinner = r
		}
	}
	// Best warm eNVM for contrast.
	tr, err := s.workloads.Traffic(benchmark)
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	base, err := s.baseline()
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	sweep, err := explorer.ENVMSweep()
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	var points []explorer.DesignPoint
	for _, p := range sweep {
		if p.Cell.Tech != cell.SRAM {
			points = append(points, p)
		}
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), points, []workload.Traffic{tr})
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	best := -1.0
	for i, p := range points {
		rel := explorer.Normalize(grid[i][0], base)
		if best < 0 || rel.RelPower < best {
			best = rel.RelPower
			sum.WarmENVMLabel = p.Label
		}
	}
	sum.WarmENVMPower = best
	return sum, nil
}

// coldAndTallVerdicts tabulates ColdAndTallVerdict for each band
// representative. It is printed after the "coldtall" artifact's flat grid,
// which holds both winners but not the best warm eNVM they are judged
// against.
func (s *Study) coldAndTallVerdicts() (*report.Table, error) {
	t := report.NewTable("Cold AND tall verdict per band representative (relative to 350K 1-die SRAM on namd)",
		"benchmark", "power winner", "rel power+cooling", "latency winner", "rel latency", "best warm eNVM", "eNVM rel power+cooling")
	for _, bench := range BandRepresentatives() {
		sum, err := s.ColdAndTallVerdict(bench)
		if err != nil {
			return nil, err
		}
		t.AddRow(bench,
			sum.PowerWinner.Label, fmt.Sprintf("%.4g", sum.PowerWinner.RelTotalPower),
			sum.LatencyWinner.Label, fmt.Sprintf("%.4g", sum.LatencyWinner.RelLatency),
			sum.WarmENVMLabel, fmt.Sprintf("%.4g", sum.WarmENVMPower))
	}
	return t, nil
}

// bandTraffic returns each Table II band's representative traffic, in
// band order.
func bandTraffic() ([]workload.Traffic, error) {
	var reps []workload.Traffic
	for _, b := range workload.Bands() {
		rep, err := workload.Representative(b)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// BandRepresentatives returns the benchmark names the combined study
// reports on (one per Table II traffic band).
func BandRepresentatives() []string {
	out := make([]string, 0, 3)
	for _, b := range workload.Bands() {
		if rep, err := workload.Representative(b); err == nil {
			out = append(out, rep.Benchmark)
		}
	}
	return out
}
