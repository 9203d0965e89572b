package coldtall

import (
	"fmt"

	"coldtall/internal/cell"
	"coldtall/internal/dram"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// ImpactRow is one (design point, benchmark, memory temperature) cell of
// the cross-stack system-impact study: the CPU-visible consequence of the
// LLC choice.
type ImpactRow struct {
	// Benchmark names the workload.
	Benchmark string
	// Label names the LLC design point; MemTemperatureK the DRAM corner.
	Label           string
	MemTemperatureK float64
	// Miss rates from the hierarchy simulation.
	L1MissRate, L2MissRate, LLCMissRate float64
	// AMATSeconds, CPI and RelIPC as in explorer.Impact.
	AMATSeconds float64
	CPI         float64
	RelIPC      float64
}

// ImpactStudy runs the cross-stack AMAT/IPC analysis: the paper's headline
// LLC choices under the three band-representative benchmarks, against both
// a 300 K and a 77 K DRAM (the latter pairing the cryogenic LLC with a
// CryoRAM-class main memory).
func (s *Study) ImpactStudy() ([]ImpactRow, error) {
	warmMem, err := dram.New(dram.DDR4(), 300)
	if err != nil {
		return nil, err
	}
	coldMem, err := dram.New(dram.DDR4(), 77)
	if err != nil {
		return nil, err
	}
	points := []explorer.DesignPoint{
		explorer.Baseline(),
		explorer.EDRAMAt(tech.TempCryo77),
	}
	for _, spec := range []struct {
		tech   cell.Technology
		corner cell.Corner
		dies   int
	}{
		{cell.STTRAM, cell.Optimistic, 8},
		{cell.PCM, cell.Optimistic, 8},
		{cell.PCM, cell.Pessimistic, 1},
	} {
		p, err := explorer.Stacked(spec.tech, spec.corner, spec.dies)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}

	var rows []ImpactRow
	for _, bench := range BandRepresentatives() {
		prof, err := workload.ProfileByName(bench)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			mems := []dram.Model{warmMem}
			if p.Temperature < 200 {
				// A cryogenic LLC implies a cold memory side too
				// (the full CryoRAM system); report both.
				mems = append(mems, coldMem)
			}
			for _, mem := range mems {
				imp, err := s.exp.SystemImpact(p, prof, mem)
				if err != nil {
					return nil, err
				}
				rows = append(rows, ImpactRow{
					Benchmark:       bench,
					Label:           p.Label,
					MemTemperatureK: mem.Temperature(),
					L1MissRate:      imp.L1MissRate,
					L2MissRate:      imp.L2MissRate,
					LLCMissRate:     imp.LLCMissRate,
					AMATSeconds:     imp.AMATSeconds,
					CPI:             imp.CPI,
					RelIPC:          imp.RelIPC,
				})
			}
		}
	}
	return rows, nil
}

// ImpactTable tabulates the system-impact study.
func (s *Study) ImpactTable() (*report.Table, error) {
	rows, err := s.ImpactStudy()
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Cross-stack system impact: AMAT and IPC vs the 350K SRAM LLC (DRAM at the stated temperature)",
		"benchmark", "LLC design point", "DRAM T", "LLC miss", "AMAT", "CPI", "rel IPC")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Label, fmt.Sprintf("%.0fK", r.MemTemperatureK),
			fmt.Sprintf("%.3f", r.LLCMissRate),
			report.Eng(r.AMATSeconds, "s"),
			fmt.Sprintf("%.3f", r.CPI),
			fmt.Sprintf("%.4f", r.RelIPC))
	}
	return t, nil
}
