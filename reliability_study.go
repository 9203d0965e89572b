package coldtall

import (
	"coldtall/internal/cell"
	"coldtall/internal/explorer"
	"coldtall/internal/tech"
)

// ReliabilityRow summarizes the fault behaviour of one candidate LLC under
// one band-representative benchmark — the quantitative backing for the
// paper's endurance caveat ("may be a limitation particularly for PCM and
// RRAM solutions").
type ReliabilityRow struct {
	// Benchmark and its write rate.
	Benchmark    string
	WritesPerSec float64
	// Label names the design point.
	Label string
	// SoftFIT is uncorrectable-write failures per 1e9 device-hours
	// through the LLC's SECDED code.
	SoftFIT float64
	// WearLifetimeYears is the wear-out horizon (ideal wear leveling).
	WearLifetimeYears float64
	// RetentionWeakBits is the expected weak bits per refresh pass
	// (dynamic cells only).
	RetentionWeakBits float64
}

// ReliabilityStudy analyzes the main Table II candidates under each band's
// representative write stream.
func (s *Study) ReliabilityStudy() ([]ReliabilityRow, error) {
	points, err := reliabilityPoints()
	if err != nil {
		return nil, err
	}
	reps, err := bandTraffic()
	if err != nil {
		return nil, err
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), points, reps)
	if err != nil {
		return nil, err
	}
	var rows []ReliabilityRow
	for j, rep := range reps {
		for i, p := range points {
			r, err := grid[i][j].Reliability()
			if err != nil {
				return nil, err
			}
			rows = append(rows, ReliabilityRow{
				Benchmark:         rep.Benchmark,
				WritesPerSec:      rep.WritesPerSec,
				Label:             p.Label,
				SoftFIT:           r.SoftFIT,
				WearLifetimeYears: r.WearLifetimeYears,
				RetentionWeakBits: r.RetentionWeakBitsPerRefresh,
			})
		}
	}
	return rows, nil
}

// reliabilityPoints is the reliability study's grid: 3T-eDRAM at 350 K and
// 77 K, and the optimistic 4-die PCM, STT-RAM and RRAM stacks.
func reliabilityPoints() ([]explorer.DesignPoint, error) {
	points := []explorer.DesignPoint{
		explorer.EDRAMAt(tech.TempHot350),
		explorer.EDRAMAt(tech.TempCryo77),
	}
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
		p, err := explorer.Stacked(tc, cell.Optimistic, 4)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}
