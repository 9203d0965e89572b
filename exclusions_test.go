package coldtall

import (
	"strings"
	"testing"
)

func TestExclusionStudyShape(t *testing.T) {
	rows, err := study(t).ExclusionStudy()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]ExclusionRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	oneTC := byLabel["350K 1T1C-eDRAM"]
	gain := byLabel["350K 3T-eDRAM"]
	sram := byLabel["350K SRAM"]
	if oneTC.Label == "" || gain.Label == "" || sram.Label == "" {
		t.Fatalf("missing rows: %v", byLabel)
	}
	// The paper's exclusion reason: 1T1C is slower than SRAM and
	// 3T-eDRAM (destructive reads pay a restore) ...
	if oneTC.RelReadLatency <= sram.RelReadLatency || oneTC.RelReadLatency <= gain.RelReadLatency {
		t.Errorf("1T1C read latency %.3f should exceed SRAM (%.3f) and 3T (%.3f)",
			oneTC.RelReadLatency, sram.RelReadLatency, gain.RelReadLatency)
	}
	if oneTC.RelWriteLatency <= gain.RelWriteLatency {
		t.Error("1T1C writes should be slower than the gain cell's")
	}
	// ... and its dynamic energy exceeds the gain cell's, with a heavier
	// refresh burden.
	if oneTC.RelReadEnergy <= gain.RelReadEnergy {
		t.Errorf("1T1C read energy %.3f should exceed 3T-eDRAM's %.3f",
			oneTC.RelReadEnergy, gain.RelReadEnergy)
	}
	if oneTC.RelRefresh <= gain.RelRefresh {
		t.Error("1T1C should refresh harder than the gain cell")
	}
	// SOT: better writes than STT, worse reads (Sec. II-B).
	sot := byLabel["1-die SOT-RAM (optimistic)"]
	stt := byLabel["1-die STT-RAM (optimistic)"]
	if sot.RelWriteEnergy >= stt.RelWriteEnergy {
		t.Error("SOT write energy should undercut STT's")
	}
	if sot.RelReadLatency <= stt.RelReadLatency {
		t.Error("SOT read latency should exceed STT's")
	}
}

func TestRenderExclusions(t *testing.T) {
	tb, err := study(t).ExclusionTable()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"1T1C-eDRAM", "SOT-RAM", "refresh"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
