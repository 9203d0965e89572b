package explorer

import (
	"context"
	"sync"
	"testing"

	"coldtall/internal/workload"
)

// sweepPoints builds a deliberately interleaved grid: two families (SRAM
// and 3T-eDRAM) alternating across temperatures and die counts, the way
// the figure sweeps enumerate them.
func sweepPoints() []DesignPoint {
	var pts []DesignPoint
	for _, temp := range []float64{350, 77, 227} {
		for _, dies := range []int{1, 4, 2} {
			pts = append(pts, SRAMAt(temp).withDies(dies), EDRAMAt(temp).withDies(dies))
		}
	}
	return pts
}

func (p DesignPoint) withDies(dies int) DesignPoint {
	p.Dies = dies
	return p
}

// TestSweepOrderIsPermutation asserts the sweep's characterization order
// (FamilyOrder) is a valid permutation of the points: dropping or
// double-dispatching a point would silently skip or repeat its search.
func TestSweepOrderIsPermutation(t *testing.T) {
	pts := sweepPoints()
	order := FamilyOrder(pts)
	if len(order) != len(pts) {
		t.Fatalf("order has %d entries, want %d", len(order), len(pts))
	}
	seen := make([]bool, len(pts))
	for _, i := range order {
		if i < 0 || i >= len(pts) {
			t.Fatalf("point %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("point %d dispatched twice", i)
		}
		seen[i] = true
	}
}

// TestSweepOrderGroupsFamilies asserts each characterization family is
// dispatched contiguously with members ordered by (dies, temperature) —
// the property that keeps the array layer's ranking memo warm between
// neighboring design points.
func TestSweepOrderGroupsFamilies(t *testing.T) {
	pts := sweepPoints()
	seenFamily := map[string]bool{}
	last := ""
	var lastPoint *DesignPoint
	for _, i := range FamilyOrder(pts) {
		p := pts[i]
		k := FamilyKey(p)
		if k != last {
			if seenFamily[k] {
				t.Fatalf("family %q dispatched non-contiguously", k)
			}
			seenFamily[k] = true
			last = k
			lastPoint = nil
		}
		if lastPoint != nil {
			if p.Dies < lastPoint.Dies ||
				(p.Dies == lastPoint.Dies && p.Temperature < lastPoint.Temperature) {
				t.Fatalf("family %q not ordered by (dies, temperature): %s before %s", k, lastPoint.Label, p.Label)
			}
		}
		cp := p
		lastPoint = &cp
	}
}

// TestEvaluateAllMatchesSerialWalk pins the reordering contract: the
// neighbor-aware dispatch must land every cell at its input position, so
// the grid equals the naive serial walk cell for cell.
func TestEvaluateAllMatchesSerialWalk(t *testing.T) {
	pts := []DesignPoint{SRAMAt(350), EDRAMAt(77), SRAMAt(77), EDRAMAt(350)}
	traffics := []workload.Traffic{
		{ReadsPerSec: 1e8, WritesPerSec: 4e7},
		{ReadsPerSec: 2e9, WritesPerSec: 9e8},
	}
	e := New()
	got, err := e.EvaluateAllContext(context.Background(), pts, traffics)
	if err != nil {
		t.Fatalf("EvaluateAll: %v", err)
	}
	want := make([][]Evaluation, len(pts))
	for i, p := range pts {
		want[i] = make([]Evaluation, len(traffics))
		for j, tr := range traffics {
			ev, err := e.EvaluateContext(context.Background(), p, tr)
			if err != nil {
				t.Fatalf("Evaluate(%s): %v", p.Label, err)
			}
			want[i][j] = ev
		}
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("cell [%d][%d] differs from serial walk:\ngrid:   %+v\nserial: %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEvaluateAllProgressCharacterizesOnce pins the sweep schedule: the
// baseline and each distinct point are characterized once, however many
// cells and duplicate points the grid holds, and progress counts every
// cell up to the grid size.
func TestEvaluateAllProgressCharacterizesOnce(t *testing.T) {
	pts := []DesignPoint{EDRAMAt(77), SRAMAt(77), EDRAMAt(77), SRAMAt(227)}
	traffics := workload.StaticTraffic()[:3]
	e := New()
	e.Workers = 4
	var mu sync.Mutex
	calls, high := 0, 0
	if _, err := e.EvaluateAllProgress(context.Background(), pts, traffics, func(done int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		high = max(high, done)
	}); err != nil {
		t.Fatal(err)
	}
	n := len(pts) * len(traffics)
	if calls != n || high != n {
		t.Errorf("progress fired %d times up to %d, want %d and %d", calls, high, n, n)
	}
	if got := e.OptimizeCalls(); got != 4 {
		t.Errorf("optimizer ran %d times, want 4 (three distinct points + the baseline)", got)
	}
}
