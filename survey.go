package coldtall

import (
	"fmt"
	"sort"

	"coldtall/internal/cell"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// The tentpole methodology collapses the published spread of each eNVM
// technology to two extrema. This study evaluates every individual survey
// datapoint instead, exposing the distribution the tentpoles bound — the
// check that the extrema really are extrema at the application level, and
// how wide each technology's tent is.

// SurveyRow is one database cell evaluated as a 4-die LLC under one
// benchmark.
type SurveyRow struct {
	// Tech and Name identify the survey datapoint; Venue/Year its
	// provenance style.
	Tech  string
	Name  string
	Venue string
	Year  int
	// Benchmark is the workload.
	Benchmark string
	// RelPower and RelLatency are vs the 350 K SRAM baseline on namd.
	RelPower   float64
	RelLatency float64
}

// SurveySpread summarizes one technology's distribution under a benchmark.
type SurveySpread struct {
	Tech      string
	Benchmark string
	// Power quantiles (relative), plus the tentpole corners for
	// comparison.
	MinPower, MedianPower, MaxPower   float64
	OptimisticPower, PessimisticPower float64
	// Points is the number of survey datapoints.
	Points int
}

// SurveySweep evaluates every database entry for the three eNVM
// technologies as a 4-die 350 K LLC under the benchmark.
func (s *Study) SurveySweep(benchmark string) ([]SurveyRow, error) {
	tr, err := s.trafficFor(benchmark)
	if err != nil {
		return nil, err
	}
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	var entries []cell.DatabaseEntry
	var points []explorer.DesignPoint
	for _, entry := range cell.Database() {
		switch entry.Tech {
		case cell.PCM, cell.STTRAM, cell.RRAM:
			// The paper's LLC study sweeps exactly these three eNVMs;
			// SOT-RAM and the gain-cell survey have their own studies.
		default:
			continue
		}
		entries = append(entries, entry)
		points = append(points, explorer.DesignPoint{
			Label:       fmt.Sprintf("4-die %s", entry.Name),
			Cell:        entry.Cell,
			Temperature: tech.TempHot350,
			Dies:        4,
			Style:       stack.TSVStack,
		})
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), points, []workload.Traffic{tr})
	if err != nil {
		return nil, err
	}
	rows := make([]SurveyRow, len(entries))
	for i, entry := range entries {
		rel := explorer.Normalize(grid[i][0], base)
		rows[i] = SurveyRow{
			Tech:       entry.Tech.String(),
			Name:       entry.Name,
			Venue:      entry.Venue,
			Year:       entry.Year,
			Benchmark:  benchmark,
			RelPower:   rel.RelPower,
			RelLatency: rel.RelLatency,
		}
	}
	return rows, nil
}

// SurveySpreads summarizes the sweep per technology and verifies it against
// the tentpole corners.
func (s *Study) SurveySpreads(benchmark string) ([]SurveySpread, error) {
	rows, err := s.SurveySweep(benchmark)
	if err != nil {
		return nil, err
	}
	tr, err := s.trafficFor(benchmark)
	if err != nil {
		return nil, err
	}
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	// Each surveyed technology contributes its optimistic then pessimistic
	// 4-die tentpole: corners [2k] and [2k+1] belong to out[k].
	var out []SurveySpread
	var corners []explorer.DesignPoint
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
		var powers []float64
		for _, r := range rows {
			if r.Tech == tc.String() {
				powers = append(powers, r.RelPower)
			}
		}
		if len(powers) == 0 {
			continue
		}
		sort.Float64s(powers)
		out = append(out, SurveySpread{
			Tech:        tc.String(),
			Benchmark:   benchmark,
			MinPower:    powers[0],
			MedianPower: powers[len(powers)/2],
			MaxPower:    powers[len(powers)-1],
			Points:      len(powers),
		})
		for _, corner := range cell.Corners() {
			p, err := explorer.Stacked(tc, corner, 4)
			if err != nil {
				return nil, err
			}
			corners = append(corners, p)
		}
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), corners, []workload.Traffic{tr})
	if err != nil {
		return nil, err
	}
	for k := range out {
		out[k].OptimisticPower = explorer.Normalize(grid[2*k][0], base).RelPower
		out[k].PessimisticPower = explorer.Normalize(grid[2*k+1][0], base).RelPower
	}
	return out, nil
}

// SurveyTables tabulates the per-datapoint sweep and the per-technology
// spreads for the mid-band representative.
func (s *Study) SurveyTables() ([]*report.Table, error) {
	const bench = "xalancbmk"
	rows, err := s.SurveySweep(bench)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Survey sweep: every database datapoint as a 4-die LLC under %s (relative to 350K SRAM on namd)", bench),
		"tech", "datapoint", "venue", "year", "rel power", "rel latency")
	for _, r := range rows {
		t.AddRow(r.Tech, r.Name, r.Venue, fmt.Sprintf("%d", r.Year),
			report.Rel(r.RelPower), report.Rel(r.RelLatency))
	}
	spreads, err := s.SurveySpreads(bench)
	if err != nil {
		return nil, err
	}
	ts := report.NewTable("Per-technology spread vs the tentpole corners",
		"tech", "points", "min", "median", "max", "tentpole opt", "tentpole pess")
	for _, sp := range spreads {
		ts.AddRow(sp.Tech, fmt.Sprintf("%d", sp.Points),
			report.Rel(sp.MinPower), report.Rel(sp.MedianPower), report.Rel(sp.MaxPower),
			report.Rel(sp.OptimisticPower), report.Rel(sp.PessimisticPower))
	}
	return []*report.Table{t, ts}, nil
}
