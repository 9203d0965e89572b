package coldtall

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"coldtall/internal/report"
	"coldtall/internal/workload"
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
		{
			ID: "Freq/a", Text: "350 K SRAM: performance follows the clock alone", Expected: "rel_perf = f / 5 GHz, rel_ipc = 1",
			check: func(s *Study) (string, bool, error) {
				rows, err := freqRows(s, "SRAM", 350)
				if err != nil {
					return "", false, err
				}
				ok := true
				for _, r := range rows {
					ok = ok && math.Abs(r.RelIPC-1) < 1e-9 &&
						math.Abs(r.RelPerf-r.FrequencyHz/workload.DefaultFrequencyHz) < 1e-9
				}
				last := rows[len(rows)-1]
				return fmt.Sprintf("rel_perf %.3g at %g GHz", last.RelPerf, last.FrequencyHz/1e9), ok, nil
			},
		},
		{
			ID: "Freq/b", Text: "77 K 3T-eDRAM: the IPC gain grows with the clock", Expected: "rel_ipc > 1, rising to ~1.15 at 10 GHz",
			check: func(s *Study) (string, bool, error) {
				rows, err := freqRows(s, "3T-eDRAM", 77)
				if err != nil {
					return "", false, err
				}
				ok := rows[0].RelIPC > 1
				for i := 1; i < len(rows); i++ {
					ok = ok && rows[i].RelIPC > rows[i-1].RelIPC
				}
				last := rows[len(rows)-1]
				ok = ok && last.FrequencyHz == 1e10 && last.RelIPC > 1.10 && last.RelIPC < 1.20
				return fmt.Sprintf("%.3f at 1 GHz, %.3f at 10 GHz", rows[0].RelIPC, last.RelIPC), ok, nil
			},
		},
		{
			ID: "WlSig/a", Text: "mcf, the read-traffic maximum, has the largest footprint", Expected: "mcf, ~78 KB",
			check: func(s *Study) (string, bool, error) {
				profiles, sigs, err := profileSignatures(s.context())
				if err != nil {
					return "", false, err
				}
				top := 0
				for i, sig := range sigs {
					if sig.FootprintBytes() > sigs[top].FootprintBytes() {
						top = i
					}
				}
				fp := sigs[top].FootprintBytes()
				return fmt.Sprintf("%s, %d B", profiles[top].Name, fp),
					profiles[top].Name == "mcf" && fp > 60_000 && fp < 100_000, nil
			},
		},
		{
			ID: "WlSig/b", Text: "the quietest profiles reuse blocks soonest", Expected: "exchange2, leela, povray: smallest reuse_p90",
			check: func(s *Study) (string, bool, error) {
				profiles, sigs, err := profileSignatures(s.context())
				if err != nil {
					return "", false, err
				}
				quiet := map[string]bool{"exchange2": true, "leela": true, "povray": true}
				var quietMax, restMin uint64 = 0, math.MaxUint64
				var measured []string
				for i, p := range profiles {
					p90 := sigs[i].ReuseQuantile(0.9)
					if quiet[p.Name] {
						quietMax = max(quietMax, p90)
						measured = append(measured, fmt.Sprintf("%s %d", p.Name, p90))
					} else {
						restMin = min(restMin, p90)
					}
				}
				return strings.Join(measured, ", "), len(measured) == len(quiet) && quietMax < restMin, nil
			},
		},
		{
			ID: "Deep/a", Text: "the cryocooler's Carnot-scaled cost at 4 K (arXiv 2408.03308)", Expected: "~1,082 W/W (1,000-1,200)",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.DeepCryoSweep()
				if err != nil {
					return "", false, err
				}
				for _, r := range rows {
					if r.TemperatureK == 4 {
						return fmt.Sprintf("%.0f W/W", r.CoolerWPerW), r.CoolerWPerW >= 1000 && r.CoolerWPerW <= 1200, nil
					}
				}
				return "", false, fmt.Errorf("missing 4 K row")
			},
		},
		{
			ID: "Deep/b", Text: "below 77 K total power rises as T falls while device power stays flat", Expected: "rel_total_power rising 77->4 K, rel_device_power within 5 %",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.DeepCryoSweep()
				if err != nil {
					return "", false, err
				}
				deep := []float64{77, 40, 20, 10, 4}
				ok := true
				var measured []string
				for _, c := range []string{"SRAM", "3T-eDRAM"} {
					byT := make(map[float64]DeepCryoRow)
					for _, r := range rows {
						if r.Cell == c {
							byT[r.TemperatureK] = r
						}
					}
					at77, ok77 := byT[77]
					if !ok77 {
						return "", false, fmt.Errorf("missing 77 K %s row", c)
					}
					prev := at77
					for _, temp := range deep[1:] {
						r, found := byT[temp]
						if !found {
							return "", false, fmt.Errorf("missing %g K %s row", temp, c)
						}
						ok = ok && r.RelTotalPower > prev.RelTotalPower &&
							math.Abs(r.RelDevicePower/at77.RelDevicePower-1) <= 0.05
						prev = r
					}
					measured = append(measured, fmt.Sprintf("%s %.3g -> %.3g", c, at77.RelTotalPower, prev.RelTotalPower))
				}
				return strings.Join(measured, ", "), ok, nil
			},
		},
		{
			ID: "Gain/a", Text: "350 K retention: OS gain cell seconds, 3T-eDRAM sub-ms (arXiv 2503.06304)", Expected: ">= 1 s vs < 1 ms",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.GainCellStudy()
				if err != nil {
					return "", false, err
				}
				gc, edram := math.NaN(), math.NaN()
				for _, r := range rows {
					switch {
					case r.TemperatureK != 350:
					case r.Cell == "OS-GC" && r.Corner == "optimistic" && r.Dies == 1:
						gc = r.RetentionS
					case r.Cell == "3T-eDRAM":
						edram = r.RetentionS
					}
				}
				if math.IsNaN(gc) || math.IsNaN(edram) {
					return "", false, fmt.Errorf("missing 350 K row")
				}
				return fmt.Sprintf("OS-GC %.3g s, 3T-eDRAM %.3g ms", gc, edram*1e3), gc >= 1 && edram < 1e-3, nil
			},
		},
		{
			ID: "Gain/b", Text: "gain-cell retention grows as T falls and stacking lowers area", Expected: "every family, every corner and temperature",
			check: func(s *Study) (string, bool, error) {
				rows, err := s.GainCellStudy()
				if err != nil {
					return "", false, err
				}
				// Rows of one family (cell, corner, dies) across temperatures,
				// and of one stack (cell, corner, temperature) across dies.
				family := make(map[string][]GainCellRow)
				stack := make(map[string][]GainCellRow)
				for _, r := range rows {
					f := fmt.Sprintf("%s/%s/%d", r.Cell, r.Corner, r.Dies)
					family[f] = append(family[f], r)
					if r.Cell == "OS-GC" {
						k := fmt.Sprintf("%s/%g", r.Corner, r.TemperatureK)
						stack[k] = append(stack[k], r)
					}
				}
				ok := len(family) > 0 && len(stack) > 0
				for _, rs := range family {
					sort.Slice(rs, func(i, j int) bool { return rs[i].TemperatureK > rs[j].TemperatureK })
					for i := 1; i < len(rs); i++ {
						ok = ok && rs[i].RetentionS > rs[i-1].RetentionS
					}
				}
				for _, rs := range stack {
					sort.Slice(rs, func(i, j int) bool { return rs[i].Dies < rs[j].Dies })
					ok = ok && len(rs) > 1
					for i := 1; i < len(rs); i++ {
						ok = ok && rs[i].RelArea < rs[i-1].RelArea
					}
				}
				return fmt.Sprintf("%d families, %d stacks", len(family), len(stack)), ok, nil
			},
		},
	}
}

// freqRows returns the frequency sweep's rows of one design point, in
// sweep order: ascending clock (SweepFrequencies).
func freqRows(s *Study, cell string, tempK float64) ([]FreqRow, error) {
	rows, err := s.FrequencySweep()
	if err != nil {
		return nil, err
	}
	var out []FreqRow
	for _, r := range rows {
		if r.Cell == cell && r.TemperatureK == tempK {
			out = append(out, r)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("frequency sweep has %d rows for %s at %g K", len(out), cell, tempK)
	}
	return out, nil
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
