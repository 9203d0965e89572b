package coldtall

import (
	"strings"
	"testing"
)

func TestImpactStudyShape(t *testing.T) {
	rows, err := study(t).ImpactStudy()
	if err != nil {
		t.Fatal(err)
	}
	// 3 benchmarks x (5 points + 1 extra cold-DRAM row for the cryo
	// point) = 18.
	if len(rows) != 18 {
		t.Fatalf("impact study has %d rows, want 18", len(rows))
	}
	find := func(bench, label string, memT float64) ImpactRow {
		for _, r := range rows {
			if r.Benchmark == bench && r.Label == label && r.MemTemperatureK == memT {
				return r
			}
		}
		t.Fatalf("missing %s/%s@%g", bench, label, memT)
		return ImpactRow{}
	}
	// The baseline is its own reference everywhere.
	for _, bench := range BandRepresentatives() {
		if r := find(bench, "350K SRAM", 300); r.RelIPC != 1 {
			t.Errorf("%s baseline RelIPC = %g", bench, r.RelIPC)
		}
	}
	// mcf (memory-bound): the cryogenic LLC lifts IPC by several percent,
	// more with a cold DRAM behind it; pessimistic PCM costs IPC.
	cryo := find("mcf", "77K 3T-eDRAM", 300)
	if cryo.RelIPC < 1.02 {
		t.Errorf("77K eDRAM on mcf RelIPC = %.4f, want a clear gain", cryo.RelIPC)
	}
	full := find("mcf", "77K 3T-eDRAM", 77)
	if full.RelIPC <= cryo.RelIPC {
		t.Error("cold DRAM should compound the cryogenic LLC's gain")
	}
	if slow := find("mcf", "1-die PCM (pessimistic)", 300); slow.RelIPC >= 1 {
		t.Errorf("pessimistic PCM on mcf RelIPC = %.4f, want < 1", slow.RelIPC)
	}
	// povray (compute-bound): the LLC choice is nearly invisible.
	for _, r := range rows {
		if r.Benchmark == "povray" && (r.RelIPC < 0.99 || r.RelIPC > 1.01) {
			t.Errorf("povray RelIPC for %s = %.4f, want ~1", r.Label, r.RelIPC)
		}
	}
}

func TestRenderImpact(t *testing.T) {
	tb, err := study(t).ImpactTable()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"Cross-stack", "AMAT", "rel IPC", "mcf"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
