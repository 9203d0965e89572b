package array

import (
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
)

// TestExploreCharacteristics logs the characterization landscape the other
// tests assert against. Run with -v to inspect absolute values.
func TestExploreCharacteristics(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration log")
	}
	show := func(label string, c cell.Cell, temp float64, dies int) Result {
		cfg := DefaultLLC(c, temp, stack.Config{Dies: dies, Style: stack.TSVStack})
		r, err := optimize(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Logf("%-22s %s eff=%.2f parts(rd): ht=%.2f route=%.2f dec=%.2f wl=%.2f bl=%.2f",
			label, r, r.ArrayEfficiency,
			r.ReadParts.HTreeRequest*1e9, r.ReadParts.InBankRoute*1e9,
			r.ReadParts.Decode*1e9, r.ReadParts.Wordline*1e9, r.ReadParts.BitlineSense*1e9)
		return r
	}
	show("SRAM 350K 1die", cell.NewSRAM6T(), 350, 1)
	show("SRAM 77K 1die", cell.NewSRAM6T(), 77, 1)
	show("eDRAM 350K 1die", cell.NewEDRAM3T(), 350, 1)
	show("eDRAM 77K 1die", cell.NewEDRAM3T(), 77, 1)
	show("SRAM 350K 8die", cell.NewSRAM6T(), 350, 8)
	for _, tech := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
		opt, _ := cell.Tentpole(tech, cell.Optimistic)
		pess, _ := cell.Tentpole(tech, cell.Pessimistic)
		for _, dies := range []int{1, 2, 4, 8} {
			show(opt.Name, opt, 350, dies)
			if dies == 1 || dies == 8 {
				show(pess.Name, pess, 350, dies)
			}
		}
	}
}
