package array

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestVisitOrderMatchesSortedPromotion pins the pruned walk's visit order
// to its definition: every staged candidate sorted by (bound, enumeration
// index). The search produces it lazily, as heap pops.
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

		want := slices.Clone(feas)
		sort.Slice(want, func(a, b int) bool {
			if want[a].bound != want[b].bound {
				return want[a].bound < want[b].bound
			}
			return want[a].idx < want[b].idx
		})

		heap := slices.Clone(feas)
		heapify(heap)
		var got []searchCandidate
		for len(heap) > 0 {
			got = append(got, popCandidate(&heap))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: heap pops diverge from the sorted order\n got %v\nwant %v", trial, got, want)
		}
	}
}
