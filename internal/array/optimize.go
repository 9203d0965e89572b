package array

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"coldtall/internal/cell"
	"coldtall/internal/parallel"
	"coldtall/internal/stack"
)

// search space for the organization sweep (CACTI's Ndwl/Ndbl/Nspd analogue).
var (
	searchRows = [...]int{128, 256, 512, 1024, 2048}
	searchCols = [...]int{256, 512, 1024, 2048, 4096}
	searchMux  = [...]int{1, 2, 4, 8, 16}
	searchBank = [...]int{1, 2, 4, 8, 16, 32, 64}
)

// spaceSize is the number of organizations in the search space.
const spaceSize = len(searchRows) * len(searchCols) * len(searchMux) * len(searchBank)

// candidates enumerates the full organization search space.
func candidates() []Organization {
	out := make([]Organization, 0, SearchSpaceSize())
	for _, banks := range searchBank {
		for _, rows := range searchRows {
			for _, cols := range searchCols {
				for _, mux := range searchMux {
					out = append(out, Organization{Banks: banks, Rows: rows, Cols: cols, ColumnMux: mux})
				}
			}
		}
	}
	return out
}

// enumeration is the search space in enumeration order, built once; the
// production search paths read it and never modify it.
var enumeration = candidates()

// Optimize sweeps internal organizations and returns the characterization
// of the best one under cfg.Target, mirroring the exhaustive organization
// search CACTI/NVSim/Destiny perform per configuration.
//
// The search is pruned: candidates whose admissible lower bound (bound.go)
// already exceeds the incumbent's objective are skipped without a full
// characterization, candidates are visited coarse-to-fine (cheapest-bound
// first, or in the ranking a neighboring design point established), and a
// per-family ranking memo carries orderings across temperatures and die
// counts. Pruning is an evaluation-order optimization only — the selected
// Result is bit-identical to the exhaustive reference (optimizeExhaustive in
// oracle_test.go, pinned by the differential harness in differential_test.go
// and by `make prunecheck`). Infeasible organizations are skipped, not errors.
func Optimize(cfg Config) (Result, error) {
	return OptimizeContext(context.Background(), cfg)
}

// OptimizeContext is Optimize with cooperative cancellation: once ctx is
// done the organization sweep stops dispatching candidates and the search
// fails with the cancellation error. A partial sweep is never reduced to a
// "best" result — a cancelled search could otherwise silently return a
// different organization than a completed one.
func OptimizeContext(ctx context.Context, cfg Config) (Result, error) {
	r, _, err := OptimizeWithStats(ctx, cfg)
	return r, err
}

// SearchStats instruments one organization search: how much of the
// candidate space was enumerated, skipped as infeasible, pruned by the
// lower bound, or fully characterized, and whether a neighboring design
// point's ranking warm-started the ordering. The benchmarks and the
// differential harness assert on it; production callers can log it.
type SearchStats struct {
	// SpaceSize is the enumerated candidate count (SearchSpaceSize()).
	SpaceSize int
	// Infeasible counts candidates rejected by the feasibility rules.
	Infeasible int
	// Pruned counts feasible candidates skipped because their admissible
	// lower bound proved they cannot beat the incumbent.
	Pruned int
	// Characterized counts full Characterize evaluations.
	Characterized int
	// WarmStart reports whether a neighboring design point's ranking
	// seeded the evaluation order.
	WarmStart bool
}

// OptimizeWithStats is OptimizeContext exposing the search instrumentation.
func OptimizeWithStats(ctx context.Context, cfg Config) (Result, SearchStats, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, SearchStats{}, err
	}
	return optimizePruned(ctx, &cfg)
}

// searchCandidate is one feasible organization staged for the pruned walk.
type searchCandidate struct {
	idx   int // position in enumeration
	bound float64
}

// before orders the coarse-to-fine walk: ascending bound, then enumeration
// index. cmp.Compare ranks a NaN bound below every number, so this is a
// strict total order even for degenerate bounds.
func (a searchCandidate) before(b searchCandidate) bool {
	if c := cmp.Compare(a.bound, b.bound); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}

// optimizePruned is the production search. Correctness argument, relied on
// by the differential harness:
//
// The exhaustive reference returns the lexicographic minimum over feasible
// candidates of (objective, enumeration index) — it scans in enumeration
// order and replaces the incumbent only on a strictly smaller objective.
// The pruned walk maintains the same lexicographic incumbent over the
// candidates it characterizes, and skips a candidate only when the skip is
// provably harmless: with an admissible bound (bound <= true objective),
//
//   - bound > bestObj            => objective > bestObj: candidate loses;
//   - bound == bestObj && idx > bestIdx => objective >= bestObj, and on
//     equality the incumbent's smaller index wins the tie anyway.
//
// Every skipped candidate therefore cannot be the lexicographic minimum,
// so the pruned result equals the exhaustive result bit for bit, whatever
// the visit order — which frees the visit order to chase prune rate: the
// family memo's neighbor ranking first, then coarse-to-fine by ascending
// bound. The coarse-to-fine part is a heap popped in before order, so once
// one popped candidate is skipped every candidate still in the heap has a
// bound at least as large and is skipped too, without being popped.
//
// Every candidate, bounded or characterized, is evaluated against one
// boundContext: the corner and wires are built once per search, and a
// characterized candidate runs the same characterize body Characterize
// runs, without rebuilding them.
func optimizePruned(ctx context.Context, cfg *Config) (Result, SearchStats, error) {
	stats := SearchStats{SpaceSize: len(enumeration)}
	bc, err := newBoundContext(cfg)
	if err != nil {
		// The bound needs the same corner and wires Characterize needs;
		// if they cannot be built no organization characterizes, so fail
		// exactly as a full sweep would.
		if err := ctx.Err(); err != nil {
			return Result{}, stats, fmt.Errorf("array: optimize %s cancelled: %w", cfg.Cell.Name, err)
		}
		return Result{}, stats, fmt.Errorf("array: no feasible organization for %s at %d B capacity",
			cfg.Cell.Name, cfg.CapacityBytes)
	}
	feas := make([]searchCandidate, 0, len(enumeration))
	var d derived
	for i := range enumeration {
		if cfg.feasible(enumeration[i], &d) != feasibleOrg {
			stats.Infeasible++
			continue
		}
		feas = append(feas, searchCandidate{idx: i, bound: bc.lowerBound(enumeration[i], &d, cfg.Target)})
	}
	key := familyOf(cfg)
	var hinted []searchCandidate
	var hintBuf [memoRankCap]searchCandidate
	if hint := searchMemo.lookup(key); len(hint) > 0 {
		stats.WarmStart = true
		hinted, feas = takeHinted(feas, hint, &hintBuf)
	}
	heapify(feas)

	var best Result
	bestIdx := -1
	var bestObj float64
	evaluated := make([]rankedOrg, 0, 64)
	pruneRest := false // the heap's remaining candidates are all pruned
	for n := len(hinted) + len(feas); n > 0; n-- {
		if err := ctx.Err(); err != nil {
			return Result{}, stats, fmt.Errorf("array: optimize %s cancelled: %w", cfg.Cell.Name, err)
		}
		if pruneRest {
			stats.Pruned++
			continue
		}
		var c searchCandidate
		fromHeap := len(hinted) == 0
		if fromHeap {
			c = popCandidate(&feas)
		} else {
			c, hinted = hinted[0], hinted[1:]
		}
		if bestIdx >= 0 && (c.bound > bestObj || (c.bound == bestObj && c.idx > bestIdx)) {
			stats.Pruned++
			pruneRest = fromHeap
			continue
		}
		org := enumeration[c.idx]
		cfg.feasible(org, &d) // staged, so feasible: this refills d
		r := bc.characterize(org, &d)
		stats.Characterized++
		obj := r.objective(cfg.Target)
		evaluated = append(evaluated, rankedOrg{obj: obj, idx: c.idx})
		if bestIdx < 0 || obj < bestObj || (obj == bestObj && c.idx < bestIdx) {
			best, bestObj, bestIdx = r, obj, c.idx
		}
	}
	if bestIdx < 0 {
		return Result{}, stats, fmt.Errorf("array: no feasible organization for %s at %d B capacity",
			cfg.Cell.Name, cfg.CapacityBytes)
	}
	searchMemo.update(key, evaluated)
	return best, stats, nil
}

// rankedOrg records one characterized organization for the family memo.
type rankedOrg struct {
	obj float64
	idx int // position in enumeration
}

// takeHinted removes the hinted organizations (enumeration indices,
// best-first from the neighboring solve) from the staged candidates and
// returns them in hint order, stored in buf, plus the remaining candidates
// compacted in place. A hinted organization that is not staged (it is
// infeasible here) is skipped, and a repeated hint counts at its first
// position.
func takeHinted(feas []searchCandidate, hint []int, buf *[memoRankCap]searchCandidate) (hinted, rest []searchCandidate) {
	var rank [spaceSize]uint8 // 1 + hint position by enumeration index; 0 when unhinted
	for h := len(hint) - 1; h >= 0; h-- {
		rank[hint[h]] = uint8(h + 1)
	}
	var found [memoRankCap]bool
	rest = feas[:0]
	for _, c := range feas {
		if r := rank[c.idx]; r != 0 {
			buf[r-1], found[r-1] = c, true
			continue
		}
		rest = append(rest, c)
	}
	// Close the gaps in hint order; a write never overtakes the read.
	hinted = buf[:0]
	for h := range hint {
		if found[h] {
			hinted = append(hinted, buf[h])
		}
	}
	return hinted, rest
}

// heapify arranges h as a binary min-heap under before.
func heapify(h []searchCandidate) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// popCandidate removes and returns the heap's first candidate under before.
func popCandidate(h *[]searchCandidate) searchCandidate {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	siftDown(*h, 0)
	return top
}

// siftDown restores the heap property below position i.
func siftDown(h []searchCandidate, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// rankingMemo caches, per organization-search family, the ranking the last
// solved member established. A family is everything about a Config except
// its temperature and die count — the delta axes of the studies: adjacent
// temperatures or layer counts differ only in a few physical scalars, so
// the organizations that won at one design point are where the incumbent
// hides at its neighbors. The memo only ever seeds the evaluation order;
// a stale, colliding or missing entry changes the prune rate, never the
// selected Result (see optimizePruned's correctness argument).
type rankingMemo struct {
	mu sync.Mutex
	m  map[familyKey][]int // enumeration indices, best first
}

// memoRankCap bounds the stored ranking per family; memoFamilyCap bounds
// the number of families so a long-lived server sweeping user-supplied
// capacities cannot grow the memo without bound.
const (
	memoRankCap   = 32
	memoFamilyCap = 4096
)

var searchMemo = &rankingMemo{m: make(map[familyKey][]int)}

// familyKey identifies a search family. The cell is identified by name,
// technology and three of its scalars — enough that distinct cells sharing
// a name (possible for caller-constructed cells) land in distinct families
// in practice; a collision would only perturb the evaluation order. The
// scalars are kept as their bits, so every key equals itself (NaN too).
type familyKey struct {
	cell                        string
	tech                        cell.Technology
	areaF2, writePulse, readAmp uint64
	capacity                    int64
	blockBytes, ports           int
	ecc                         bool
	node                        string
	style                       stack.Style
	target                      Target
}

// familyOf returns cfg's search family.
func familyOf(cfg *Config) familyKey {
	return familyKey{
		cell:       cfg.Cell.Name,
		tech:       cfg.Cell.Tech,
		areaF2:     math.Float64bits(cfg.Cell.AreaF2),
		writePulse: math.Float64bits(cfg.Cell.WritePulseS),
		readAmp:    math.Float64bits(cfg.Cell.ReadCurrentA),
		capacity:   cfg.CapacityBytes,
		blockBytes: cfg.BlockBytes,
		ports:      cfg.Ports,
		ecc:        cfg.ECC,
		node:       cfg.Node.Name,
		style:      cfg.Stack.Style,
		target:     cfg.Target,
	}
}

// lookup returns the family's last ranking (best first), or nil.
func (m *rankingMemo) lookup(key familyKey) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[key]
}

// update stores the ranking of the organizations a search characterized,
// best (objective, enumeration index) first, truncated to memoRankCap.
func (m *rankingMemo) update(key familyKey, evaluated []rankedOrg) {
	slices.SortFunc(evaluated, func(a, b rankedOrg) int {
		switch {
		case a.obj < b.obj:
			return -1
		case a.obj > b.obj:
			return 1
		}
		return a.idx - b.idx
	})
	n := min(len(evaluated), memoRankCap)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = evaluated[i].idx
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.m[key]; !exists && len(m.m) >= memoFamilyCap {
		// Evict an arbitrary family; the memo is an ordering hint, so
		// losing one only costs a future cold start.
		for k := range m.m {
			delete(m.m, k)
			break
		}
	}
	m.m[key] = rank
}

// resetSearchMemo clears every family ranking — a test and benchmark hook
// for measuring genuinely cold searches.
func resetSearchMemo() {
	searchMemo.mu.Lock()
	defer searchMemo.mu.Unlock()
	searchMemo.m = make(map[familyKey][]int)
}

// characterizeAll evaluates every candidate organization on the shared
// worker pool, returning results indexed by enumeration position (nil for
// infeasible organizations). Pareto (which needs every feasible point, so
// it cannot prune) and the exhaustive test reference both reduce over this.
func characterizeAll(ctx context.Context, cfg Config, orgs []Organization) []*Result {
	results := make([]*Result, len(orgs))
	bc, err := newBoundContext(&cfg)
	if err != nil {
		// No organization characterizes without the corner and wires.
		return results
	}
	// Infeasible organizations are skipped, so fn never fails; the only
	// error ForEachContext can surface is the cancellation, which both
	// reducers re-check via ctx.Err.
	_ = parallel.ForEachContext(ctx, len(orgs), 0, func(i int) error {
		var d derived
		if cfg.feasible(orgs[i], &d) != feasibleOrg {
			return nil
		}
		r := bc.characterize(orgs[i], &d)
		results[i] = &r
		return nil
	})
	return results
}

// SearchSpaceSize returns the number of candidate organizations Optimize
// enumerates (before feasibility filtering).
func SearchSpaceSize() int { return spaceSize }

// Pareto returns all feasible organizations that are Pareto-optimal in
// (read latency, mean access energy, footprint), sorted by read latency.
// It exposes the design space the single-objective Optimize collapses.
// Candidates are characterized on the shared worker pool; the dominance
// filter runs over the enumeration order, so the front is deterministic.
func Pareto(cfg Config) ([]Result, error) {
	return ParetoContext(context.Background(), cfg)
}

// ParetoContext is Pareto with cooperative cancellation (see
// OptimizeContext for the partial-sweep rationale).
func ParetoContext(ctx context.Context, cfg Config) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var all []Result
	for _, r := range characterizeAll(ctx, cfg, enumeration) {
		if r != nil {
			all = append(all, *r)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("array: pareto %s cancelled: %w", cfg.Cell.Name, err)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("array: no feasible organization for %s", cfg.Cell.Name)
	}
	dom := dominatedFlags(all)
	var front []Result
	for i, a := range all {
		if !dom[i] {
			front = append(front, a)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].ReadLatency < front[j].ReadLatency })
	return front, nil
}

// objTriple is a Result projected onto the three Pareto objectives.
type objTriple struct {
	lat, energy, foot float64
}

func tripleOf(r Result) objTriple {
	return objTriple{lat: r.ReadLatency, energy: (r.ReadEnergy + r.WriteEnergy) / 2, foot: r.FootprintM2}
}

// dominatedFlags computes, for each result, whether some other result
// dominates it — in O(n log n) instead of the quadratic all-pairs scan.
//
// Processing triples in lexicographic (latency, energy, footprint) order
// means every already-processed point has latency <= the current point's,
// so dominance reduces to a 2D query: does any processed point have both
// energy <= and footprint <= ours? A staircase of (energy, footprint)
// minima answers that in O(log n). Identical triples are grouped and
// queried before insertion, preserving the quadratic filter's rule that
// exact duplicates do not dominate each other (a distinct triple that is
// <= component-wise is < somewhere, hence dominates). The quadratic
// reference, paretoFrontQuadratic in oracle_test.go, is pinned equal by
// TestParetoFilterEquivalence.
func dominatedFlags(all []Result) []bool {
	n := len(all)
	triples := make([]objTriple, n)
	for i, r := range all {
		triples[i] = tripleOf(r)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := triples[idx[a]], triples[idx[b]]
		if ta.lat != tb.lat {
			return ta.lat < tb.lat
		}
		if ta.energy != tb.energy {
			return ta.energy < tb.energy
		}
		if ta.foot != tb.foot {
			return ta.foot < tb.foot
		}
		return idx[a] < idx[b]
	})
	dom := make([]bool, n)
	var stairs staircase
	for i := 0; i < n; {
		j := i
		t := triples[idx[i]]
		for j < n && triples[idx[j]] == t {
			j++
		}
		if stairs.covers(t.energy, t.foot) {
			for k := i; k < j; k++ {
				dom[idx[k]] = true
			}
		}
		stairs.insert(t.energy, t.foot)
		i = j
	}
	return dom
}

// staircase maintains 2D (energy, footprint) minima: entries sorted by
// energy ascending with strictly decreasing footprint. covers(e, f)
// reports whether any inserted point has energy <= e and footprint <= f.
type staircase struct {
	e, f []float64
}

func (s *staircase) covers(e, f float64) bool {
	// Rightmost entry with energy <= e; its footprint is the minimum
	// footprint over all entries with energy <= e.
	k := sort.SearchFloat64s(s.e, e)
	for k < len(s.e) && s.e[k] == e {
		k++
	}
	return k > 0 && s.f[k-1] <= f
}

func (s *staircase) insert(e, f float64) {
	if s.covers(e, f) {
		// A covered point can never cover anything its coverer does not.
		return
	}
	k := sort.SearchFloat64s(s.e, e)
	// Drop entries made redundant: energy >= e with footprint >= f.
	drop := k
	for drop < len(s.e) && s.f[drop] >= f {
		drop++
	}
	s.e = append(s.e[:k], append([]float64{e}, s.e[drop:]...)...)
	s.f = append(s.f[:k], append([]float64{f}, s.f[drop:]...)...)
}
