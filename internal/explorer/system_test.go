package explorer

import (
	"context"
	"errors"
	"testing"

	"coldtall/internal/dram"
	"coldtall/internal/workload"
)

func systemFixture(t *testing.T) (workload.Profile, dram.Model) {
	t.Helper()
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := dram.New(dram.DDR4(), 300)
	if err != nil {
		t.Fatal(err)
	}
	return prof, mem
}

// TestSystemImpactMissRatiosMatchWindow: SystemImpact charges the miss
// ratios of the profile's built-in window, bit for bit.
func TestSystemImpactMissRatiosMatchWindow(t *testing.T) {
	prof, mem := systemFixture(t)
	imp, err := exp(t).SystemImpact(context.Background(), Baseline(), prof, mem)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Window(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	got := workload.MissRatios{L1D: imp.L1MissRate, L2: imp.L2MissRate, LLC: imp.LLCMissRate}
	if got != w.MissRatios {
		t.Errorf("SystemImpact miss ratios %+v, Window %+v", got, w.MissRatios)
	}
}

// TestSystemImpactHonoursContext: under a cancelled context, a point no
// one has characterized yields context.Canceled with no array search run.
func TestSystemImpactHonoursContext(t *testing.T) {
	prof, mem := systemFixture(t)
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SystemImpact(ctx, EDRAMAt(350), prof, mem); !errors.Is(err, context.Canceled) {
		t.Fatalf("SystemImpact under a cancelled context: err = %v, want context.Canceled", err)
	}
	if n := e.OptimizeCalls(); n != 0 {
		t.Errorf("a cancelled SystemImpact ran %d array searches", n)
	}
}
