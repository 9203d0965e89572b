package array

import (
	"context"
	"math/rand"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
)

// boundCells returns the cell population the property tests draw from:
// every builtin technology plus both tentpole corners of each eNVM family.
func boundCells(t testing.TB) []cell.Cell {
	t.Helper()
	cells := []cell.Cell{
		cell.NewSRAM6T(), cell.NewEDRAM3T(), cell.NewEDRAM1T1C(),
		cell.NewPCM(), cell.NewSTTRAM(), cell.NewRRAM(), cell.NewSOTRAM(),
	}
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM, cell.SOTRAM} {
		opt, pess, err := cell.TentpolePair(tc)
		if err != nil {
			t.Fatalf("TentpolePair(%v): %v", tc, err)
		}
		cells = append(cells, opt, pess)
	}
	return cells
}

// randomFeasibleConfig draws a Config that passes Validate: capacities
// 1-32 MiB, the full supported temperature range, every die count, port
// count and node, with ECC and target mixed in.
func randomFeasibleConfig(rng *rand.Rand, cells []cell.Cell) Config {
	nodes := tech.Nodes()
	dies := []int{1, 2, 4, 8}
	cfg := Config{
		CapacityBytes: 1 << (20 + rng.Intn(6)), // 1-32 MiB
		BlockBytes:    1 << (5 + rng.Intn(3)),  // 32-128 B
		Associativity: 1 << rng.Intn(5),
		Ports:         1 + rng.Intn(4),
		ECC:           rng.Intn(2) == 0,
		Node:          nodes[rng.Intn(len(nodes))],
		Temperature:   70 + rng.Float64()*330, // [70, 400)
		Cell:          cells[rng.Intn(len(cells))],
		Stack:         stack.Config{Dies: dies[rng.Intn(len(dies))], Style: stack.TSVStack},
		Target:        Target(rng.Intn(5)),
	}
	return cfg
}

// TestLowerBoundAdmissible is the property test behind the pruned search:
// for randomized feasible Configs, the lower bound of every derivable
// candidate organization must not exceed the true objective under any
// target. A violation would let the search prune the true optimum, so a
// failure prints the violating Organization and Config for golden capture.
func TestLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	configs := 8
	if testing.Short() {
		configs = 3
	}
	orgs := candidates()
	for n := 0; n < configs; n++ {
		cfg := randomFeasibleConfig(rng, boundCells(t))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("config %d not feasible (generator bug): %v\nconfig: %+v", n, err, cfg)
		}
		bc, err := newBoundContext(&cfg)
		if err != nil {
			// Characterize fails identically for every candidate, so
			// there is no objective to bound.
			continue
		}
		results := characterizeAll(context.Background(), cfg, orgs)
		checked := 0
		for i, org := range orgs {
			d, err := cfg.derive(org)
			if err != nil {
				continue
			}
			r := results[i]
			if r == nil {
				t.Fatalf("config %d: derive passed but Characterize failed for %v", n, org)
			}
			for _, target := range []Target{OptimizeEDP, OptimizeLatency, OptimizeArea, OptimizeEnergy, OptimizeLeakage} {
				bound := bc.lowerBound(org, &d, target)
				obj := r.objective(target)
				if bound > obj {
					t.Errorf("config %d: bound exceeds objective for target %v by %g (rel %g)\norganization: %v\nbound=%g objective=%g\ncell=%s node=%s cap=%dB temp=%.1fK dies=%d ports=%d ecc=%t",
						n, target, bound-obj, (bound-obj)/obj, org, bound, obj,
						cfg.Cell.Name, cfg.Node.Name, cfg.CapacityBytes, cfg.Temperature,
						cfg.Stack.Dies, cfg.Ports, cfg.ECC)
				}
			}
			checked++
		}
		if checked == 0 {
			t.Logf("config %d (%s, %d B, %d dies): no feasible candidates", n, cfg.Cell.Name, cfg.CapacityBytes, cfg.Stack.Dies)
		}
	}
}

// TestBoundContextMatchesCharacterizeFailure pins the fallback contract:
// newBoundContext may only fail when Characterize fails for every
// candidate of the same config (the pruned search then falls back to the
// exhaustive path, which reports the config-level error).
func TestBoundContextMatchesCharacterizeFailure(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	if _, err := newBoundContext(&cfg); err != nil {
		t.Fatalf("bound context failed for a characterizable config: %v", err)
	}
}
