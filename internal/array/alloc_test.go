package array

import (
	"testing"

	"coldtall/internal/cell"
)

// Allocation budgets of the organization search at the Table I SRAM point
// (the BenchmarkArrayOptimize configuration). The search walks the shared
// enumeration and characterizes against its one boundContext, so a search
// allocates a few buffers, not a corner and wires per candidate; these
// budgets keep it that way.
const (
	optimizeAllocBudget     = 66
	characterizeAllocBudget = 6
)

func TestOptimizeAllocBudget(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := optimize(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > optimizeAllocBudget {
		t.Errorf("Optimize allocates %.0f times per search, budget %d", allocs, optimizeAllocBudget)
	}
}

func TestCharacterizeAllocBudget(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	org := Organization{Banks: 16, Rows: 512, Cols: 1024, ColumnMux: 4}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Characterize(cfg, org); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > characterizeAllocBudget {
		t.Errorf("Characterize allocates %.0f times per call, budget %d", allocs, characterizeAllocBudget)
	}
}
