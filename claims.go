package coldtall

import (
	"fmt"

	"coldtall/internal/report"
)

// Claim is one verifiable statement from the paper's text, re-evaluated
// against this reproduction. Check returns the measured value (as a display
// string) and whether the claim's shape holds here.
type Claim struct {
	// ID locates the claim ("Fig1/a"); Text quotes or paraphrases it.
	ID   string
	Text string
	// Expected describes the paper's number or shape.
	Expected string
	check    func(*Study) (measured string, ok bool, err error)
}

// Claims returns the reproduction checklist: every quantitative statement
// of the paper's evaluation that this repository asserts (the same facts
// the test suite pins, exposed as a user-facing artifact).
func Claims() []Claim {
	rel := func(v float64) string { return report.Rel(v) }
	return []Claim{
		{
			ID: "Fig1/a", Text: "77 K operation cuts namd LLC power", Expected: "> 50x",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig1()
				if err != nil {
					return "", false, err
				}
				var at77 float64
				for _, r := range rows {
					if r.TemperatureK == 77 {
						at77 = r.RelDevicePower
					}
				}
				return fmt.Sprintf("%.1fx", 1/at77), 1/at77 > 50, nil
			},
		},
		{
			ID: "Fig1/b", Text: "net benefit survives 9.65x cooling", Expected: "> 50 % reduction",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig1()
				if err != nil {
					return "", false, err
				}
				for _, r := range rows {
					if r.TemperatureK == 77 {
						return fmt.Sprintf("%.0f %%", (1-r.RelTotalPower)*100), r.RelTotalPower < 0.5, nil
					}
				}
				return "", false, fmt.Errorf("missing 77 K row")
			},
		},
		{
			ID: "Fig3/a", Text: "cryogenic latency reduction", Expected: "~70 % lower",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig3()
				if err != nil {
					return "", false, err
				}
				for _, r := range rows {
					if r.Cell == "SRAM" && r.TemperatureK == 77 {
						red := (1 - r.RelReadLatency) * 100
						return fmt.Sprintf("%.0f %%", red), red > 60 && red < 88, nil
					}
				}
				return "", false, fmt.Errorf("missing row")
			},
		},
		{
			ID: "Fig3/b", Text: "77 K SRAM leakage collapse", Expected: "~1,000,000x",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig3()
				if err != nil {
					return "", false, err
				}
				var cold, hot float64
				for _, r := range rows {
					if r.Cell == "SRAM" {
						switch r.TemperatureK {
						case 77:
							cold = r.RelLeakagePower
						case 350:
							hot = r.RelLeakagePower
						}
					}
				}
				ratio := hot / cold
				return fmt.Sprintf("%.2gx", ratio), ratio > 1e5 && ratio < 1e7, nil
			},
		},
		{
			ID: "Fig3/c", Text: "3T-eDRAM retention stretch at 77 K", Expected: "> 10,000x",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig3()
				if err != nil {
					return "", false, err
				}
				var cold, hot float64
				for _, r := range rows {
					if r.Cell == "3T-eDRAM" {
						switch r.TemperatureK {
						case 77:
							cold = r.RetentionS
						case 350:
							hot = r.RetentionS
						}
					}
				}
				gain := cold / hot
				return fmt.Sprintf("%.2gx", gain), gain > 1e4, nil
			},
		},
		{
			ID: "Fig4/a", Text: "namd: cooling thwarts cryogenic eDRAM", Expected: "350 K eDRAM wins",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig4()
				if err != nil {
					return "", false, err
				}
				for _, r := range rows {
					if r.Benchmark == "namd" && r.Cell == "3T-eDRAM" {
						return fmt.Sprintf("%s vs %s cooled", rel(r.Rel350K), rel(r.Rel77KCooled)),
							r.Rel77KCooled > r.Rel350K, nil
					}
				}
				return "", false, fmt.Errorf("missing row")
			},
		},
		{
			ID: "Fig4/b", Text: "leela: cryogenic wins for both technologies", Expected: "both cooled points below 350 K",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig4()
				if err != nil {
					return "", false, err
				}
				ok, n := true, 0
				for _, r := range rows {
					if r.Benchmark == "leela" {
						n++
						ok = ok && r.Rel77KCooled < r.Rel350K
					}
				}
				return fmt.Sprintf("%d/2 technologies", n), ok && n == 2, nil
			},
		},
		{
			ID: "Fig5/a", Text: "77 K 3T-eDRAM lowest device power for all benchmarks", Expected: "23/23",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig5()
				if err != nil {
					return "", false, err
				}
				best := map[string]TrafficRow{}
				for _, r := range rows {
					if cur, seen := best[r.Benchmark]; !seen || r.RelDevicePower < cur.RelDevicePower {
						best[r.Benchmark] = r
					}
				}
				wins := 0
				for _, r := range best {
					if r.Label == "77K 3T-eDRAM" {
						wins++
					}
				}
				return fmt.Sprintf("%d/%d", wins, len(best)), wins == len(best), nil
			},
		},
		{
			ID: "Fig5/b", Text: "povray-band cooled win", Expected: "> 2,500x",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig5()
				if err != nil {
					return "", false, err
				}
				var cold, base float64
				for _, r := range rows {
					if r.Benchmark == "povray" {
						switch r.Label {
						case "77K 3T-eDRAM":
							cold = r.RelTotalPower
						case "350K SRAM":
							base = r.RelTotalPower
						}
					}
				}
				return fmt.Sprintf("%.0fx", base/cold), base/cold > 2500, nil
			},
		},
		{
			ID: "Fig5/c", Text: "cooled cryo exceeds baseline at ~1e8 reads/s", Expected: "lbm & mcf above 1",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig5()
				if err != nil {
					return "", false, err
				}
				above := 0
				for _, r := range rows {
					if r.Label == "77K 3T-eDRAM" && (r.Benchmark == "lbm" || r.Benchmark == "mcf") {
						baseRel := 0.0
						for _, b := range rows {
							if b.Label == "350K SRAM" && b.Benchmark == r.Benchmark {
								baseRel = b.RelTotalPower
							}
						}
						if r.RelTotalPower > baseRel {
							above++
						}
					}
				}
				return fmt.Sprintf("%d/2 benchmarks", above), above == 2, nil
			},
		},
		{
			ID: "Fig6/a", Text: "8-die SRAM area reduction", Expected: "> 80 %",
			check: fig6Check("8-die SRAM", func(r Fig6Row) (string, bool) {
				red := (1 - r.RelArea) * 100
				return fmt.Sprintf("%.0f %%", red), red > 80
			}),
		},
		{
			ID: "Fig6/b", Text: "PCM area gain from stacking", Expected: "~30 %",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig6()
				if err != nil {
					return "", false, err
				}
				var p1, p8 float64
				for _, r := range rows {
					switch r.Label {
					case "1-die PCM (optimistic)":
						p1 = r.RelArea
					case "8-die PCM (optimistic)":
						p8 = r.RelArea
					}
				}
				red := (1 - p8/p1) * 100
				return fmt.Sprintf("%.0f %%", red), red > 20 && red < 45, nil
			},
		},
		{
			ID: "Fig6/c", Text: "8-die PCM density vs 1-die SRAM", Expected: "> 10x",
			check: fig6Check("8-die PCM (optimistic)", func(r Fig6Row) (string, bool) {
				return fmt.Sprintf("%.1fx", 1/r.RelArea), 1/r.RelArea > 10
			}),
		},
		{
			ID: "Fig6/d", Text: "read-latency order: 8PCM < 4PCM < 2PCM < 8STT < 8RRAM", Expected: "exact order",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig6()
				if err != nil {
					return "", false, err
				}
				get := func(label string) float64 {
					for _, r := range rows {
						if r.Label == label {
							return r.RelReadLatency
						}
					}
					return -1
				}
				seq := []float64{
					get("8-die PCM (optimistic)"), get("4-die PCM (optimistic)"),
					get("2-die PCM (optimistic)"), get("8-die STT-RAM (optimistic)"),
					get("8-die RRAM (optimistic)"),
				}
				ok := true
				for i := 1; i < len(seq); i++ {
					ok = ok && seq[i-1] < seq[i]
				}
				return fmt.Sprintf("%.3f..%.3f", seq[0], seq[len(seq)-1]), ok, nil
			},
		},
		{
			ID: "Fig6/e", Text: "8-die STT lowest write latency", Expected: "global minimum",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig6()
				if err != nil {
					return "", false, err
				}
				var stt8 Fig6Row
				minOther := -1.0
				for _, r := range rows {
					if r.Label == "8-die STT-RAM (optimistic)" {
						stt8 = r
						continue
					}
					if minOther < 0 || r.RelWriteLatency < minOther {
						minOther = r.RelWriteLatency
					}
				}
				return fmt.Sprintf("%.3f vs next %.3f", stt8.RelWriteLatency, minOther),
					stt8.RelWriteLatency < minOther, nil
			},
		},
		{
			ID: "Fig7/a", Text: "8-die PCM lowest power above 1e7 reads/s", Expected: "wins mcf",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig7()
				if err != nil {
					return "", false, err
				}
				var best TrafficRow
				first := true
				for _, r := range rows {
					if r.Benchmark != "mcf" {
						continue
					}
					if first || r.RelTotalPower < best.RelTotalPower {
						best, first = r, false
					}
				}
				return best.Label, best.Label == "8-die PCM (optimistic)", nil
			},
		},
		{
			ID: "Fig7/b", Text: "8-die STT lowest latency except mcf", Expected: "22/23 + PCM on mcf",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Fig7()
				if err != nil {
					return "", false, err
				}
				best := map[string]TrafficRow{}
				for _, r := range rows {
					if cur, seen := best[r.Benchmark]; !seen || r.RelLatency < cur.RelLatency {
						best[r.Benchmark] = r
					}
				}
				sttWins, pcmOnMcf := 0, false
				for bench, r := range best {
					if bench == "mcf" {
						pcmOnMcf = r.Label == "8-die PCM (optimistic)"
						continue
					}
					if r.Label == "8-die STT-RAM (optimistic)" {
						sttWins++
					}
				}
				return fmt.Sprintf("STT %d/22, mcf->PCM %v", sttWins, pcmOnMcf),
					sttWins == 22 && pcmOnMcf, nil
			},
		},
		{
			ID: "TabII/a", Text: "power column winners", Expected: "77K 3T-eDRAM / 4-die PCM / 8-die PCM",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Table2()
				if err != nil {
					return "", false, err
				}
				got := ""
				ok := true
				want := map[string]string{
					"<5e4": "77K 3T-eDRAM", "5e4-8e6": "4-die PCM (optimistic)", ">8e6": "8-die PCM (optimistic)",
				}
				for _, r := range rows {
					if r.Objective != "power" {
						continue
					}
					if got != "" {
						got += " / "
					}
					got += r.Winner
					ok = ok && r.Winner == want[r.Band]
				}
				return got, ok, nil
			},
		},
		{
			ID: "TabII/b", Text: "power alternatives", Expected: "77K 3T-eDRAM (mid), 8-die SRAM (high)",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.Table2()
				if err != nil {
					return "", false, err
				}
				var mid, high string
				for _, r := range rows {
					if r.Objective == "power" {
						switch r.Band {
						case "5e4-8e6":
							mid = r.Alternative
						case ">8e6":
							high = r.Alternative
						}
					}
				}
				return mid + ", " + high, mid == "77K 3T-eDRAM" && high == "8-die SRAM", nil
			},
		},
		{
			ID: "SecVI", Text: "cold AND tall sweeps low-traffic power and latency", Expected: "8-die 77K 3T-eDRAM",
			check: func(s *Study) (string, bool, error) {
				sum, err := s.ColdAndTallVerdict("povray")
				if err != nil {
					return "", false, err
				}
				ok := sum.PowerWinner.Label == "8-die 3T-eDRAM @77K" &&
					sum.LatencyWinner.Label == "8-die 3T-eDRAM @77K"
				return sum.PowerWinner.Label, ok, nil
			},
		},
		{
			ID: "SecVA", Text: "air cooling equilibrates near the 350 K anchor", Expected: "330-365 K",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.ThermalStudy()
				if err != nil {
					return "", false, err
				}
				for _, r := range rows {
					if r.Benchmark == "mcf" && r.Environment == "air" {
						return fmt.Sprintf("%.1f K", r.OperatingK),
							r.OperatingK > 330 && r.OperatingK < 365, nil
					}
				}
				return "", false, fmt.Errorf("missing row")
			},
		},
	}
}

// fig6Check builds a claim check over one Fig. 6 row.
func fig6Check(label string, f func(Fig6Row) (string, bool)) func(*Study) (string, bool, error) {
	return func(s *Study) (string, bool, error) {
		rows, err := s.Fig6()
		if err != nil {
			return "", false, err
		}
		for _, r := range rows {
			if r.Label == label {
				m, ok := f(r)
				return m, ok, nil
			}
		}
		return "", false, fmt.Errorf("missing row %q", label)
	}
}

// VerifyResult is one evaluated claim.
type VerifyResult struct {
	Claim
	Measured string
	Pass     bool
	Err      error
}

// Verify re-evaluates the whole checklist.
func (s *Study) Verify() []VerifyResult {
	claims := Claims()
	out := make([]VerifyResult, len(claims))
	for i, c := range claims {
		measured, ok, err := c.check(s)
		out[i] = VerifyResult{Claim: c, Measured: measured, Pass: ok && err == nil, Err: err}
	}
	return out
}

// VerifyTable tabulates the reproduction checklist; its note counts the
// claims reproduced.
func (s *Study) VerifyTable() *report.Table {
	results := s.Verify()
	t := report.NewTable("Reproduction checklist: the paper's claims re-evaluated against this build",
		"claim", "statement", "paper", "measured", "status")
	pass := 0
	for _, r := range results {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
			if r.Err != nil {
				status = "ERROR: " + r.Err.Error()
			}
		} else {
			pass++
		}
		t.AddRow(r.ID, r.Text, r.Expected, r.Measured, status)
	}
	t.Note = fmt.Sprintf("  %d/%d claims reproduced. Known deviations are documented in EXPERIMENTS.md.", pass, len(results))
	return t
}
