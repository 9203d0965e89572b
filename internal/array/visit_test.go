package array

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestVisitOrderMatchesSortedPromotion pins the pruned walk's visit order
// to its definition: every staged candidate sorted by (bound, enumeration
// index), then the hinted ones moved to the front in hint order. The
// search produces it lazily, as takeHinted's front followed by heap pops.
func TestVisitOrderMatchesSortedPromotion(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		var feas []searchCandidate
		for i := 0; i < spaceSize; i++ {
			if rng.Intn(3) == 0 {
				continue // infeasible here
			}
			// Few distinct bounds, so ties fall back to the index.
			feas = append(feas, searchCandidate{idx: i, bound: float64(rng.Intn(40))})
		}
		rng.Shuffle(len(feas), func(a, b int) { feas[a], feas[b] = feas[b], feas[a] })
		var hint []int
		for n := rng.Intn(memoRankCap + 1); len(hint) < n; {
			hint = append(hint, rng.Intn(spaceSize)) // may repeat or be unstaged
		}

		want := slices.Clone(feas)
		sort.Slice(want, func(a, b int) bool {
			if want[a].bound != want[b].bound {
				return want[a].bound < want[b].bound
			}
			return want[a].idx < want[b].idx
		})
		sort.SliceStable(want, func(a, b int) bool {
			pa, pb := slices.Index(hint, want[a].idx), slices.Index(hint, want[b].idx)
			if (pa >= 0) != (pb >= 0) {
				return pa >= 0
			}
			return pa >= 0 && pa < pb
		})

		var buf [memoRankCap]searchCandidate
		hinted, rest := takeHinted(slices.Clone(feas), hint, &buf)
		got := slices.Clone(hinted)
		heapify(rest)
		for len(rest) > 0 {
			got = append(got, popCandidate(&rest))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: visit order diverges from sorted promotion\n got %v\nwant %v", trial, got, want)
		}
	}
}
