package array

import (
	"context"
	"fmt"
	"sort"

	"coldtall/internal/stack"
)

// This file holds the reference implementations the production search and
// Pareto filter are differenced against (differential_test.go,
// search_fuzz_test.go, pareto_test.go, the search benchmarks). They live in
// tests only: production always runs the pruned search and the staircase
// filter.

// optimize is the production search with its instrumentation dropped.
func optimize(cfg Config) (Result, error) {
	r, _, err := OptimizeWithStats(context.Background(), cfg)
	return r, err
}

// planar is the 2D baseline stack the single-die tests search.
var planar = stack.Config{Dies: 1, Style: stack.TSVStack}

// optimizeExhaustive is the reference search: characterize every candidate
// on the shared worker pool and reduce sequentially over the fixed
// enumeration order. It is the ground truth the pruned path is differenced
// against; it selects the first candidate (in enumeration order) attaining
// the minimum objective, i.e. the lexicographic minimum by (objective,
// enumeration index).
func optimizeExhaustive(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	orgs := candidates()
	results := characterizeAll(ctx, cfg, orgs)
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("array: optimize %s cancelled: %w", cfg.Cell.Name, err)
	}

	var best Result
	found := false
	for _, r := range results {
		if r == nil {
			continue
		}
		if !found || r.objective(cfg.Target) < best.objective(cfg.Target) {
			best = *r
			found = true
		}
	}
	if !found {
		return Result{}, fmt.Errorf("array: no feasible organization for %s at %d B capacity",
			cfg.Cell.Name, cfg.CapacityBytes)
	}
	return best, nil
}

// paretoFrontQuadratic is the original all-pairs dominance filter, the
// reference the O(n log n) staircase filter (dominatedFlags) is
// differenced against.
func paretoFrontQuadratic(all []Result) []Result {
	var front []Result
	for i, a := range all {
		dominated := false
		for j, b := range all {
			if i == j {
				continue
			}
			if dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].ReadLatency < front[j].ReadLatency })
	return front
}

// dominates reports whether a is at least as good as b on every objective
// and strictly better on at least one.
func dominates(a, b Result) bool {
	ea := (a.ReadEnergy + a.WriteEnergy) / 2
	eb := (b.ReadEnergy + b.WriteEnergy) / 2
	ge := a.ReadLatency <= b.ReadLatency && ea <= eb && a.FootprintM2 <= b.FootprintM2
	gt := a.ReadLatency < b.ReadLatency || ea < eb || a.FootprintM2 < b.FootprintM2
	return ge && gt
}
