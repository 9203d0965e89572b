package array

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
)

// diffPoint is one design point of the differential grid: the cell,
// temperature and die-count axes every golden artifact sweeps.
type diffPoint struct {
	name string
	cfg  Config
}

// differentialGrid enumerates the cell x temperature x layer grid the
// golden artifacts are built from: the cryo temperature sweep for the
// volatile cells, the stacking sweep for the 3D studies, and both tentpole
// corners of each eNVM family at every die count. ~52 points; each costs
// one exhaustive characterizeAll, so the full grid runs under `make
// prunecheck` and short mode samples it deterministically.
func differentialGrid(t testing.TB) []diffPoint {
	t.Helper()
	var pts []diffPoint
	add := func(name string, c cell.Cell, temp float64, dies int) {
		pts = append(pts, diffPoint{
			name: name,
			cfg:  DefaultLLC(c, temp, stack.Config{Dies: dies, Style: stack.TSVStack}),
		})
	}
	// Cryo sweep: planar SRAM and 3T-eDRAM across the Fig. 3 temperatures.
	for _, temp := range []float64{77, 127, 177, 227, 277, 327, 350, 387} {
		add("sram", cell.NewSRAM6T(), temp, 1)
		add("edram3t", cell.NewEDRAM3T(), temp, 1)
	}
	// Stacking sweep: cold and warm endpoints at every 3D die count.
	for _, dies := range []int{2, 4, 8} {
		for _, temp := range []float64{77, 350} {
			add("sram", cell.NewSRAM6T(), temp, dies)
			add("edram3t", cell.NewEDRAM3T(), temp, dies)
		}
	}
	// eNVM tentpole corners at 350 K across the layer sweep.
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
		for _, corner := range cell.Corners() {
			c, err := cell.Tentpole(tc, corner)
			if err != nil {
				t.Fatalf("Tentpole(%v, %v): %v", tc, corner, err)
			}
			for _, dies := range []int{1, 2, 4, 8} {
				add(c.Name, c, 350, dies)
			}
		}
	}
	return pts
}

// TestPrunedMatchesExhaustive is the centerpiece differential harness: it
// replays the golden design grid through both the exhaustive reference and
// the production pruned search and requires bit-identical Result selection
// — every field, via struct equality — plus matching error behavior. It
// also asserts the pruned search actually earns its keep: >= 5x fewer
// Characterize calls than the exhaustive sweep across the grid.
func TestPrunedMatchesExhaustive(t *testing.T) {
	pts := differentialGrid(t)
	if testing.Short() {
		// Deterministic ~20-point sample covering every grid region.
		sampled := make([]diffPoint, 0, 20)
		for i := 0; i < len(pts); i += 3 {
			sampled = append(sampled, pts[i])
		}
		pts = sampled
	}

	ctx := context.Background()
	var feasibleTotal, characterized, pruned int
	for _, p := range pts {
		want, wantErr := optimizeExhaustive(ctx, p.cfg)
		got, stats, gotErr := OptimizeWithStats(ctx, p.cfg)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s %gK %dd: exhaustive err=%v, pruned err=%v",
				p.name, p.cfg.Temperature, p.cfg.Stack.Dies, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s %gK %dd: error mismatch:\nexhaustive: %v\npruned:     %v",
					p.name, p.cfg.Temperature, p.cfg.Stack.Dies, wantErr, gotErr)
			}
			continue
		}
		if got != want {
			t.Errorf("%s %gK %dd: pruned selection differs from exhaustive\nexhaustive: %+v\npruned:     %+v\nstats: %+v",
				p.name, p.cfg.Temperature, p.cfg.Stack.Dies, want, got, stats)
		}
		feasibleTotal += stats.Pruned + stats.Characterized
		characterized += stats.Characterized
		pruned += stats.Pruned
	}
	if feasibleTotal == 0 {
		t.Fatal("differential grid produced no feasible candidates")
	}
	t.Logf("grid: %d points, %d feasible candidates, %d characterized, %d pruned (prune rate %.1f%%, %.1fx fewer Characterize calls)",
		len(pts), feasibleTotal, characterized, pruned,
		100*float64(pruned)/float64(feasibleTotal),
		float64(feasibleTotal)/float64(characterized))
	if characterized*5 > feasibleTotal {
		t.Errorf("pruned search characterized %d of %d feasible candidates — less than the required 5x reduction",
			characterized, feasibleTotal)
	}
}

// TestPrunedMatchesExhaustiveWarm solves a 3T-eDRAM temperature
// neighborhood between the grid's points, warm to cold, and requires every
// selection to match the exhaustive reference exactly.
func TestPrunedMatchesExhaustiveWarm(t *testing.T) {
	ctx := context.Background()
	for _, temp := range []float64{350, 327, 300, 277, 250} {
		cfg := DefaultLLC(cell.NewEDRAM3T(), temp, planar)
		want, err := optimizeExhaustive(ctx, cfg)
		if err != nil {
			t.Fatalf("exhaustive at %gK: %v", temp, err)
		}
		got, err := optimize(cfg)
		if err != nil {
			t.Fatalf("pruned at %gK: %v", temp, err)
		}
		if got != want {
			t.Errorf("selection at %gK differs:\nexhaustive: %+v\npruned:     %+v", temp, want, got)
		}
	}
}

// searchOutcome is everything one organization search reports.
type searchOutcome struct {
	r     Result
	stats SearchStats
	err   error
}

// solveGrid runs the pruned search on pts in the given visit order and
// returns the outcomes at input positions.
func solveGrid(pts []diffPoint, order []int) []searchOutcome {
	out := make([]searchOutcome, len(pts))
	for _, i := range order {
		r, stats, err := OptimizeWithStats(context.Background(), pts[i].cfg)
		out[i] = searchOutcome{r, stats, err}
	}
	return out
}

// TestSearchOrderIndependent pins that a search is a pure function of its
// Config: the differential grid solved forward, reversed, and each point
// on its own goroutine (all at once) gives every point the same Result and
// the same SearchStats. No solve may leave state that steers another.
func TestSearchOrderIndependent(t *testing.T) {
	pts := differentialGrid(t)
	forward := make([]int, len(pts))
	reversed := make([]int, len(pts))
	for i := range pts {
		forward[i], reversed[len(pts)-1-i] = i, i
	}
	want := solveGrid(pts, forward)
	runs := map[string][]searchOutcome{"reversed": solveGrid(pts, reversed)}
	alone := make([]searchOutcome, len(pts))
	var wg sync.WaitGroup
	for i := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, stats, err := OptimizeWithStats(context.Background(), pts[i].cfg)
			alone[i] = searchOutcome{r, stats, err}
		}()
	}
	wg.Wait()
	runs["alone"] = alone
	for name, got := range runs {
		for i, p := range pts {
			w, g := want[i], got[i]
			if g.r != w.r || g.stats != w.stats || fmt.Sprint(g.err) != fmt.Sprint(w.err) {
				t.Errorf("%s %gK %dd: %s run differs from forward\nforward: %+v %+v %v\n%s: %+v %+v %v",
					p.name, p.cfg.Temperature, p.cfg.Stack.Dies, name, w.stats, w.r.Org, w.err, name, g.stats, g.r.Org, g.err)
			}
		}
	}
}

// TestBaselineSearchStats pins the instrumentation of the 350 K SRAM
// baseline search, the point every normalization reads: a change to the
// search space, the feasibility rules, the bound or the visit order moves
// these counts.
func TestBaselineSearchStats(t *testing.T) {
	_, stats, err := OptimizeWithStats(context.Background(), DefaultLLC(cell.NewSRAM6T(), 350, planar))
	if err != nil {
		t.Fatal(err)
	}
	want := SearchStats{SpaceSize: 875, Infeasible: 259, Pruned: 615, Characterized: 1}
	if stats != want {
		t.Errorf("baseline SearchStats = %+v, want %+v", stats, want)
	}
}

// TestParetoDifferential pins ParetoContext (fast dominance filter over the
// shared characterizeAll sweep) against the quadratic reference filter on a
// spread of grid points: identical front sets in identical order.
func TestParetoDifferential(t *testing.T) {
	pts := differentialGrid(t)
	// Pareto costs two full characterizeAll sweeps per point; keep to a
	// representative spread across cells, temperatures and die counts.
	idx := []int{0, 1, 9, 16, 21, 30, 44}
	if testing.Short() {
		idx = idx[:3]
	}
	ctx := context.Background()
	for _, i := range idx {
		p := pts[i]
		front, err := ParetoContext(ctx, p.cfg)
		if err != nil {
			t.Fatalf("Pareto(%s %gK %dd): %v", p.name, p.cfg.Temperature, p.cfg.Stack.Dies, err)
		}
		var all []Result
		for _, r := range characterizeAll(ctx, p.cfg, candidates()) {
			if r != nil {
				all = append(all, *r)
			}
		}
		want := paretoFrontQuadratic(all)
		if len(front) != len(want) {
			t.Fatalf("%s %gK %dd: front size %d, quadratic reference %d",
				p.name, p.cfg.Temperature, p.cfg.Stack.Dies, len(front), len(want))
		}
		for j := range front {
			if front[j] != want[j] {
				t.Errorf("%s %gK %dd: front[%d] differs:\nfast:      %+v\nquadratic: %+v",
					p.name, p.cfg.Temperature, p.cfg.Stack.Dies, j, front[j], want[j])
			}
		}
	}
}
