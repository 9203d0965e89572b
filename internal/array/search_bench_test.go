package array

import (
	"context"
	"testing"

	"coldtall/internal/cell"
)

// benchConfig is the paper's LLC at the cryogenic endpoint — the design
// point every cold-study artifact re-optimizes.
func benchConfig() Config {
	return DefaultLLC(cell.NewEDRAM3T(), 77, planar)
}

// BenchmarkOptimizeExhaustive measures the reference full-sweep search:
// all 875 candidate organizations characterized per design point. This is
// the 135 ms/op baseline EXPERIMENTS.md records for the seed.
func BenchmarkOptimizeExhaustive(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizeExhaustive(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(SearchSpaceSize()), "characterize-calls/op")
}

// BenchmarkOptimizePruned measures the production bounded search. The
// characterize-calls/op and prune-rate metrics are what the >=5x acceptance
// bar reads.
func BenchmarkOptimizePruned(b *testing.B) {
	cfg := benchConfig()
	var calls, feasible int
	for i := 0; i < b.N; i++ {
		_, stats, err := OptimizeWithStats(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		calls += stats.Characterized
		feasible += stats.Characterized + stats.Pruned
	}
	b.ReportMetric(float64(calls)/float64(b.N), "characterize-calls/op")
	b.ReportMetric(float64(feasible-calls)/float64(feasible), "prune-rate")
}

// BenchmarkLowerBound measures one bound evaluation — the per-candidate
// cost the pruned search pays instead of a Characterize call.
func BenchmarkLowerBound(b *testing.B) {
	cfg := benchConfig()
	bc, err := newBoundContext(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	org := Organization{Banks: 16, Rows: 512, Cols: 1024, ColumnMux: 2}
	d, err := cfg.derive(org)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bc.lowerBound(org, &d, OptimizeEDP)
	}
}

// BenchmarkParetoFilter compares the staircase dominance filter against
// the quadratic reference on a real characterization sweep.
func BenchmarkParetoFilter(b *testing.B) {
	cfg := benchConfig()
	var all []Result
	for _, r := range characterizeAll(context.Background(), cfg, candidates()) {
		if r != nil {
			all = append(all, *r)
		}
	}
	b.Run("staircase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dominatedFlags(all)
		}
	})
	b.Run("quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = paretoFrontQuadratic(all)
		}
	})
}
