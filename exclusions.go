package coldtall

import (
	"coldtall/internal/cell"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
)

// The paper excludes two technologies from its headline comparison and
// justifies each exclusion with one sentence; this file regenerates the
// evidence.
//
//   - 1T1C-eDRAM: "prior work has shown that it is generally slower and
//     exhibits higher dynamic energy than SRAM and 3T-eDRAM" (Sec. III-B).
//   - SOT-RAM "improves significantly on the write performance of STT-RAM
//     at the expense of increased read latency" (Sec. II-B) — mentioned but
//     not carried into the LLC study.

// ExclusionRow compares one excluded technology against its reference.
type ExclusionRow struct {
	// Label names the design point.
	Label string
	// Relative array metrics vs 1-die 350 K SRAM.
	RelReadLatency, RelWriteLatency float64
	RelReadEnergy, RelWriteEnergy   float64
	RelLeakage, RelArea             float64
	// RelRefresh is refresh power over the baseline's leakage (the cost
	// SRAM never pays).
	RelRefresh float64
}

// ExclusionStudy characterizes 1T1C-eDRAM, 3T-eDRAM, SOT-RAM and STT-RAM at
// 350 K against the SRAM baseline, documenting why the paper's headline
// comparison drops 1T1C (slower, higher dynamic energy) and why SOT is a
// write-latency specialist.
func (s *Study) ExclusionStudy() ([]ExclusionRow, error) {
	base, err := s.exp.Characterize(explorer.Baseline())
	if err != nil {
		return nil, err
	}
	points := []explorer.DesignPoint{
		explorer.Baseline(),
		explorer.EDRAMAt(tech.TempHot350),
		edram1T1CAt350(),
	}
	sot, err := explorer.Stacked(cell.SOTRAM, cell.Optimistic, 1)
	if err != nil {
		return nil, err
	}
	stt, err := explorer.Stacked(cell.STTRAM, cell.Optimistic, 1)
	if err != nil {
		return nil, err
	}
	points = append(points, stt, sot)

	var rows []ExclusionRow
	for _, p := range points {
		r, err := s.exp.Characterize(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExclusionRow{
			Label:           p.Label,
			RelReadLatency:  r.ReadLatency / base.ReadLatency,
			RelWriteLatency: r.WriteLatency / base.WriteLatency,
			RelReadEnergy:   r.ReadEnergy / base.ReadEnergy,
			RelWriteEnergy:  r.WriteEnergy / base.WriteEnergy,
			RelLeakage:      r.LeakagePower / base.LeakagePower,
			RelArea:         r.FootprintM2 / base.FootprintM2,
			RelRefresh:      r.RefreshPower / base.LeakagePower,
		})
	}
	return rows, nil
}

// edram1T1CAt350 builds the 1T1C design point (not part of the standard
// sweeps).
func edram1T1CAt350() explorer.DesignPoint {
	return explorer.DesignPoint{
		Label:       "350K 1T1C-eDRAM",
		Cell:        cell.NewEDRAM1T1C(),
		Temperature: tech.TempHot350,
		Dies:        1,
		Style:       stack.TSVStack,
	}
}

// ExclusionTable tabulates the exclusion study with its reading.
func (s *Study) ExclusionTable() (*report.Table, error) {
	rows, err := s.ExclusionStudy()
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Excluded technologies at 350K (relative to 1-die SRAM): why 1T1C-eDRAM and SOT-RAM sit out",
		"design point", "rd lat", "wr lat", "rd E", "wr E", "leakage", "refresh", "area")
	for _, r := range rows {
		t.AddRow(r.Label,
			report.Rel(r.RelReadLatency), report.Rel(r.RelWriteLatency),
			report.Rel(r.RelReadEnergy), report.Rel(r.RelWriteEnergy),
			report.Rel(r.RelLeakage), report.Rel(r.RelRefresh), report.Rel(r.RelArea))
	}
	t.Note = "  1T1C-eDRAM reads destructively: every read pays a full-swing row restore,\n" +
		"  so it is slower than SRAM and 3T-eDRAM, its dynamic energy sits well above\n" +
		"  the gain cell's, and it refreshes more than twice as often; SOT-RAM beats\n" +
		"  STT on writes but pays on reads — both exclusions as the paper states."
	return t, nil
}
