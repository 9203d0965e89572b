package coldtall

import (
	"strings"
	"testing"
)

func TestThermalStudyClosesTheLoop(t *testing.T) {
	rows, err := study(t).ThermalStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("thermal study has %d rows, want 6 (3 benchmarks x 2 environments)", len(rows))
	}
	for _, r := range rows {
		if !r.WithinBudget {
			t.Errorf("%s/%s exceeds its cooling budget", r.Benchmark, r.Environment)
			continue
		}
		switch r.Environment {
		case "air":
			// The paper's 350 K normalization anchor emerges as the
			// air-cooled equilibrium of the SRAM-LLC chip.
			if r.OperatingK < 330 || r.OperatingK > 365 {
				t.Errorf("%s air equilibrium %.1f K, want near 350 K", r.Benchmark, r.OperatingK)
			}
			if r.Cell != "SRAM" {
				t.Errorf("air row should use the SRAM LLC")
			}
		case "ln-bath":
			// The bath holds the chip within its 20 K variation band.
			if r.OperatingK < 77 || r.OperatingK > 97 {
				t.Errorf("%s bath equilibrium %.1f K, want 77-97 K", r.Benchmark, r.OperatingK)
			}
			if r.Cell != "3T-eDRAM" {
				t.Errorf("bath row should use the gain-cell LLC")
			}
		default:
			t.Errorf("unknown environment %q", r.Environment)
		}
		if r.ChipPowerW <= coreDynamicW {
			t.Errorf("%s/%s chip power %.1f W should exceed the core's dynamic floor",
				r.Benchmark, r.Environment, r.ChipPowerW)
		}
	}
}

func TestThermalStudyColdChipDrawsLess(t *testing.T) {
	rows, err := study(t).ThermalStudy()
	if err != nil {
		t.Fatal(err)
	}
	byEnv := map[string]float64{}
	for _, r := range rows {
		if r.Benchmark == "mcf" {
			byEnv[r.Environment] = r.ChipPowerW
		}
	}
	// The cryogenic chip's device power (before cooling overhead) is
	// lower: core leakage and LLC leakage are gone.
	if byEnv["ln-bath"] >= byEnv["air"] {
		t.Errorf("cold chip (%.1f W) should draw less than the warm one (%.1f W)",
			byEnv["ln-bath"], byEnv["air"])
	}
}

func TestRenderThermal(t *testing.T) {
	tb, err := study(t).ThermalTable()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"self-consistent", "ln-bath", "air"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
