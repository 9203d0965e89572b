package array

// FuzzOptimizeConfig differences the production pruned organization search
// against the exhaustive reference under adversarial configurations: for
// any capacity/temperature/layer mutation the fuzzer finds, either both
// searches fail with the same error, or both succeed with a bit-identical
// Result. This is the unbounded companion of the fixed differential grid
// in differential_test.go — the grid covers the golden design points, the
// fuzzer covers the configs nobody thought to enumerate. Wired into
// `make fuzz` for a bounded CI smoke.

import (
	"context"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
)

func FuzzOptimizeConfig(f *testing.F) {
	// Seeds: (capacity exponent, block exponent, temperature, dies,
	// ports, ecc, cell index, node index, target) spanning the golden
	// grid's regions plus deliberately invalid axes.
	seeds := []struct {
		capExp, blkExp int
		tempK          float64
		dies, ports    int
		ecc            bool
		cellIdx        int
		nodeIdx        int
		target         int
	}{
		{24, 6, 350, 1, 2, true, 0, 1, 0},  // the paper's LLC (SRAM)
		{24, 6, 77, 1, 2, true, 1, 1, 0},   // cold 3T-eDRAM
		{24, 6, 77, 8, 2, true, 1, 1, 0},   // cold + tall
		{20, 5, 387, 4, 1, false, 3, 0, 1}, // hot PCM, latency target
		{22, 7, 300, 2, 4, true, 4, 2, 4},  // STT-RAM, leakage target
		{25, 6, 350, 8, 2, true, 5, 1, 2},  // RRAM, area target
		{21, 6, 127, 1, 3, false, 2, 1, 3}, // 1T1C-eDRAM, energy target
		{4, 6, 350, 1, 2, true, 0, 1, 0},   // block exceeds capacity: invalid
		{24, 6, 30, 1, 2, true, 0, 1, 0},   // temperature out of range
		{24, 6, 350, 3, 2, true, 0, 1, 0},  // non-power-of-two dies
	}
	for _, s := range seeds {
		f.Add(s.capExp, s.blkExp, s.tempK, s.dies, s.ports, s.ecc, s.cellIdx, s.nodeIdx, s.target)
	}
	cells := []cell.Cell{
		cell.NewSRAM6T(), cell.NewEDRAM3T(), cell.NewEDRAM1T1C(),
		cell.NewPCM(), cell.NewSTTRAM(), cell.NewRRAM(), cell.NewSOTRAM(),
	}
	nodes := tech.Nodes()

	f.Fuzz(func(t *testing.T, capExp, blkExp int, tempK float64, dies, ports int, ecc bool, cellIdx, nodeIdx, target int) {
		if capExp < 0 || capExp > 26 || blkExp < 0 || blkExp > 12 {
			t.Skip("capacity out of modeled range")
		}
		if cellIdx < 0 || cellIdx >= len(cells) || nodeIdx < 0 || nodeIdx >= len(nodes) {
			t.Skip("index out of population")
		}
		cfg := Config{
			CapacityBytes: 1 << capExp,
			BlockBytes:    1 << blkExp,
			Associativity: 16,
			Ports:         ports,
			ECC:           ecc,
			Node:          nodes[nodeIdx],
			Temperature:   tempK,
			Cell:          cells[cellIdx],
			Stack:         stack.Config{Dies: dies, Style: stack.TSVStack},
			Target:        Target(target % 5),
		}
		if err := cfg.Validate(); err != nil {
			// Invalid configs must fail identically through both paths.
			if _, _, perr := OptimizeWithStats(context.Background(), cfg); perr == nil || perr.Error() != err.Error() {
				t.Fatalf("pruned search accepted or re-worded an invalid config:\nvalidate: %v\npruned:   %v", err, perr)
			}
			return
		}
		want, wantErr := optimizeExhaustive(context.Background(), cfg)
		got, stats, gotErr := OptimizeWithStats(context.Background(), cfg)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("disagreement on feasibility:\nexhaustive err: %v\npruned err:     %v\nconfig: %+v", wantErr, gotErr, cfg)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error mismatch:\nexhaustive: %v\npruned:     %v\nconfig: %+v", wantErr, gotErr, cfg)
			}
			return
		}
		if got != want {
			t.Fatalf("pruned selection differs from exhaustive:\nexhaustive: %+v\npruned:     %+v\nstats: %+v\nconfig: %+v", want, got, stats, cfg)
		}
		// The search keeps no state between solves, so a repeat solve
		// gives the same selection and the same instrumentation.
		again, againStats, err := OptimizeWithStats(context.Background(), cfg)
		if err != nil {
			t.Fatalf("repeat solve failed: %v", err)
		}
		if again != got || againStats != stats {
			t.Fatalf("repeat solve differs:\nfirst:  %+v %+v\nrepeat: %+v %+v", got, stats, again, againStats)
		}
	})
}
