package coldtall

import (
	"strings"
	"testing"
)

func TestColdAndTallGridShape(t *testing.T) {
	rows, err := study(t).ColdAndTall("povray")
	if err != nil {
		t.Fatal(err)
	}
	// 2 cells x 4 die counts x 2 temperatures.
	if len(rows) != 16 {
		t.Fatalf("grid has %d rows, want 16", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Label] {
			t.Errorf("duplicate point %s", r.Label)
		}
		seen[r.Label] = true
		if r.RelTotalPower <= 0 || r.RelLatency <= 0 || r.RelArea <= 0 {
			t.Errorf("%s: non-positive relatives", r.Label)
		}
	}
}

func TestColdAndTallCombinationWinsLowTraffic(t *testing.T) {
	// The paper's Section VI hypothesis: combining cryogenic operation
	// with 3D stacking yields "both highly performant and low
	// power/temperature chips". At low traffic the 8-die 77 K 3T-eDRAM
	// should beat every single-lever point on both axes.
	sum, err := study(t).ColdAndTallVerdict("povray")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]ColdAndTallRow{"power": sum.PowerWinner, "latency": sum.LatencyWinner} {
		if w.TemperatureK != 77 {
			t.Errorf("%s winner %s should be cryogenic", name, w.Label)
		}
		if w.Dies != 8 {
			t.Errorf("%s winner %s should be fully stacked", name, w.Label)
		}
		if w.Cell != "3T-eDRAM" {
			t.Errorf("%s winner %s should be the gain cell", name, w.Label)
		}
	}
	// And it must beat the best warm eNVM on power at this traffic.
	if sum.PowerWinner.RelTotalPower >= sum.WarmENVMPower {
		t.Errorf("cold+tall (%.3g) should beat the best warm eNVM (%.3g) at povray traffic",
			sum.PowerWinner.RelTotalPower, sum.WarmENVMPower)
	}
}

func TestColdAndTallHighTrafficFavorsWarm(t *testing.T) {
	// At mcf's traffic the cooling overhead should put the warm eNVM
	// ahead of any cryogenic combination on power.
	sum, err := study(t).ColdAndTallVerdict("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if sum.PowerWinner.TemperatureK == 77 {
		// The cryogenic grid winner may still be cold, but it must not
		// beat the warm eNVM.
		if sum.PowerWinner.RelTotalPower < sum.WarmENVMPower {
			t.Errorf("at mcf traffic warm eNVM (%.3g) should beat cold+tall (%.3g)",
				sum.WarmENVMPower, sum.PowerWinner.RelTotalPower)
		}
	}
}

func TestColdAndTallStackingHelpsLatencyAtBothTemperatures(t *testing.T) {
	rows, err := study(t).ColdAndTall("xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ColdAndTallRow{}
	for _, r := range rows {
		byKey[r.Label] = r
	}
	for _, temp := range []string{"350K", "77K"} {
		one := byKey["1-die SRAM @"+temp]
		eight := byKey["8-die SRAM @"+temp]
		if eight.RelLatency >= one.RelLatency {
			t.Errorf("stacking should cut latency at %s", temp)
		}
	}
}

func TestBandRepresentatives(t *testing.T) {
	reps := BandRepresentatives()
	if len(reps) != 3 {
		t.Fatalf("got %d representatives, want 3", len(reps))
	}
	want := []string{"povray", "xalancbmk", "mcf"}
	for i, name := range want {
		if reps[i] != name {
			t.Errorf("representative[%d] = %s, want %s", i, reps[i], name)
		}
	}
}

// TestRenderColdAndTall pins that the "coldtall" artifact renders with
// its verdict: both winners and the best warm eNVM per benchmark.
func TestRenderColdAndTall(t *testing.T) {
	var b strings.Builder
	if err := study(t).RenderArtifact(&b, "coldtall", false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Cold AND tall", "verdict", "best warm eNVM", "8-die 3T-eDRAM @77K", "1-die PCM (optimistic)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}
