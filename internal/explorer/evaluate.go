package explorer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"coldtall/internal/array"
	"coldtall/internal/cryo"
	"coldtall/internal/parallel"
	"coldtall/internal/reliability"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// Evaluation is one (design point, benchmark) cell of the study: the
// application-level metrics the paper plots.
type Evaluation struct {
	// Point and Traffic identify the cell.
	Point   DesignPoint
	Traffic workload.Traffic
	// Array is the underlying array characterization.
	Array array.Result

	// DevicePower is leakage + refresh + traffic-driven dynamic power in
	// watts.
	DevicePower float64
	// CoolingPower is the cryocooler input power (0 when warm).
	CoolingPower float64
	// TotalPower is DevicePower + CoolingPower — the paper's "total LLC
	// power including cooling".
	TotalPower float64

	// AggregateLatency is the total access latency incurred per second
	// of execution (reads/s x read latency + writes/s x write latency),
	// the paper's "total LLC latency".
	AggregateLatency float64
	// Utilization is demanded accesses over sustainable bandwidth; at 1
	// the array saturates.
	Utilization float64
	// ContentionFactor inflates per-access latency for bank conflicts
	// under load (M/D/1 waiting time): 1 at idle, growing without bound
	// toward saturation. It quantifies the paper's bandwidth check.
	ContentionFactor float64
	// Slowdown reports whether this solution fails the paper's
	// bandwidth/latency check against the 350 K SRAM baseline for the
	// same benchmark (a relative total-latency value above 1, or demand
	// beyond the array's sustainable bandwidth).
	Slowdown bool

	// LifetimeYears is the write-endurance-limited lifetime under this
	// benchmark's write rate with ideal wear leveling (+Inf when the
	// technology does not wear).
	LifetimeYears float64
}

// ModelVersion stamps persisted characterization results with the physics
// they were computed under. Bump it whenever the array/cell/tech/stack
// models change observable numbers — a persistent result store
// (internal/store) keyed with the old stamp is then invalidated wholesale
// instead of serving stale physics.
//
// v2: DesignPoint.Key spells temperatures exactly; a v1 store may hold
// results keyed by a rounded temperature that a fractional one would hit.
// v3: DesignPoint.Key spells a non-default clock exactly, for the same
// reason. The cluster's register handshake compares this stamp too, so a
// v2 worker (which also speaks the older lease and register wire format)
// is refused with 409.
const ModelVersion = "coldtall-physics-v3"

// ResultStore is the optional persistence hook behind the characterization
// cache: a disk-backed store (wired by the serving layer) that lets
// characterizations survive process restarts. Load reports whether the key
// exists; Save is best-effort (a failed write costs a future
// recomputation). Implementations must be safe for concurrent use.
type ResultStore interface {
	Load(key string) (array.Result, bool)
	Save(key string, r array.Result)
}

// charState is the characterization memory an Explorer computes through:
// the in-process result cache, the singleflight group guarding it, the
// optimize-invocation counter, and the optional persistence hook. It is a
// separate shared structure so explorers that differ only in their cooling
// environment (cooling touches Evaluate, never Characterize) can share one
// memory — see WithCoolingShared.
type charState struct {
	mu    sync.Mutex
	cache map[string]array.Result

	// flight deduplicates in-flight characterizations so the expensive
	// array.Optimize search runs at most once per design-point key even
	// under concurrent callers.
	flight parallel.Flight[array.Result]

	// optimizeCalls counts actual array.Optimize invocations (cache,
	// flight and persistence hits excluded) — observable via the
	// concurrency tests.
	optimizeCalls atomic.Int64

	// persist, when non-nil, is consulted on cache misses and written on
	// cache fills (under the flight, so each key is persisted once).
	persist ResultStore
}

// Explorer evaluates design points under workloads. The zero value is not
// usable; construct with New.
//
// An Explorer is safe for concurrent use: the characterization cache is
// singleflight-guarded, so concurrent callers of the same design point share
// one array optimization, and EvaluateAll fans the points×benchmarks grid
// out over a bounded worker pool with deterministic output ordering.
type Explorer struct {
	// Cooling is the cryogenic environment.
	Cooling cryo.Cooling

	// Workers bounds the sweep worker pool: 0 (the default) means one
	// worker per available CPU, 1 forces the serial path. Set it before
	// the first sweep; it is not synchronized.
	Workers int

	chars *charState
}

// New returns an Explorer with the paper's default cooling (100 kW-class
// cryocooler charged below 200 K).
func New() *Explorer {
	return &Explorer{
		Cooling: cryo.DefaultCooling(),
		chars:   &charState{cache: make(map[string]array.Result)},
	}
}

// WithCooling returns an Explorer using a specific cooling environment,
// with its own characterization memory (the historical constructor for
// fully independent explorers — derive from an existing one with
// WithCoolingShared when the caches should be shared).
func WithCooling(c cryo.Cooling) (*Explorer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	e := New()
	e.Cooling = c
	return e, nil
}

// WithCoolingShared returns an Explorer under a different cooling
// environment that shares the receiver's characterization cache, flight
// and persistence hook. Array characterization never depends on cooling —
// cooling only folds into Evaluate's power accounting — so sub-studies
// that sweep cooler classes (the Sec. III-C sensitivity) reuse every
// characterization instead of re-running the optimizer per class.
func (e *Explorer) WithCoolingShared(c cryo.Cooling) (*Explorer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Explorer{Cooling: c, Workers: e.Workers, chars: e.chars}, nil
}

// SetPersistence attaches a persistent result store behind the
// characterization cache: misses fall through to it, fills write through
// to it, and a restarted process re-serves every previously characterized
// point without re-running the optimizer. Set it before the explorer takes
// traffic; the field is not synchronized against in-flight sweeps.
func (e *Explorer) SetPersistence(rs ResultStore) {
	e.chars.mu.Lock()
	e.chars.persist = rs
	e.chars.mu.Unlock()
}

// Characterize runs (and caches) the EDP-optimized array characterization
// of a design point. Concurrent callers of the same point share a single
// in-flight optimization: the first caller computes, the rest wait on it,
// so a cold sweep never runs the expensive search twice for one key.
func (e *Explorer) Characterize(p DesignPoint) (array.Result, error) {
	return e.CharacterizeContext(context.Background(), p)
}

// CharacterizeContext is Characterize with cooperative cancellation: the
// underlying organization search aborts once ctx is done, and the failed
// characterization is not cached, so a later caller with a live context
// recomputes it cleanly.
//
// Cancellation caveat: concurrent callers of the same key share one flight,
// and the flight runs under the first caller's context. If that caller is
// cancelled mid-search, the waiting callers observe the same cancellation
// error; retrying (with their own live context) recomputes the point.
func (e *Explorer) CharacterizeContext(ctx context.Context, p DesignPoint) (array.Result, error) {
	if err := p.Validate(); err != nil {
		return array.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return array.Result{}, fmt.Errorf("explorer: characterizing %s: %w", p.Label, err)
	}
	key := p.Key()
	cs := e.chars
	cs.mu.Lock()
	r, ok := cs.cache[key]
	persist := cs.persist
	cs.mu.Unlock()
	if ok {
		return r, nil
	}
	return cs.flight.Do(key, func() (array.Result, error) {
		// Re-check under the flight: a previous flight for this key may
		// have filled the cache between our miss and winning the flight.
		cs.mu.Lock()
		r, ok := cs.cache[key]
		cs.mu.Unlock()
		if ok {
			return r, nil
		}
		if persist != nil {
			if r, ok := persist.Load(key); ok {
				cs.mu.Lock()
				cs.cache[key] = r
				cs.mu.Unlock()
				return r, nil
			}
		}
		cs.optimizeCalls.Add(1)
		r, err := array.OptimizeContext(ctx, p.arrayConfig())
		if err != nil {
			return array.Result{}, fmt.Errorf("explorer: characterizing %s: %w", p.Label, err)
		}
		cs.mu.Lock()
		cs.cache[key] = r
		cs.mu.Unlock()
		if persist != nil {
			persist.Save(key, r)
		}
		return r, nil
	})
}

// OptimizeCalls reports how many times the explorer actually ran the
// expensive array optimization (cache and flight hits excluded). The
// serving layer's cache-stampede tests assert on it; it is also a useful
// production gauge for cache effectiveness.
func (e *Explorer) OptimizeCalls() int64 { return e.chars.optimizeCalls.Load() }

// CachedCharacterization reports whether the point's characterization is
// already available without running the optimizer: in the in-process cache
// or (when persistence is attached) in the persistent store. A persistence
// hit is promoted into the cache. It never computes.
func (e *Explorer) CachedCharacterization(p DesignPoint) (array.Result, bool) {
	key := p.Key()
	cs := e.chars
	cs.mu.Lock()
	r, ok := cs.cache[key]
	persist := cs.persist
	cs.mu.Unlock()
	if ok {
		return r, true
	}
	if persist != nil {
		if r, ok := persist.Load(key); ok {
			cs.mu.Lock()
			cs.cache[key] = r
			cs.mu.Unlock()
			return r, true
		}
	}
	return array.Result{}, false
}

// SeedCharacterization installs an externally computed characterization
// for a point, filling the in-process cache and writing through the
// persistence hook exactly as CharacterizeContext would have. The cluster
// layer uses it to land worker-computed results: array.Optimize is
// deterministic (the pruned/exhaustive differential pins this), so a
// seeded result is identical to what a local computation would produce and
// every artifact rendered from it stays byte-identical.
func (e *Explorer) SeedCharacterization(p DesignPoint, r array.Result) {
	key := p.Key()
	cs := e.chars
	cs.mu.Lock()
	_, had := cs.cache[key]
	if !had {
		cs.cache[key] = r
	}
	persist := cs.persist
	cs.mu.Unlock()
	if !had && persist != nil {
		persist.Save(key, r)
	}
}

// Evaluate computes the application-level metrics of one design point under
// one benchmark's traffic, following the paper's methodology: total LLC
// power is leakage plus refresh plus rate-weighted access energy, cooling
// is charged below the cooling threshold, and total LLC latency is the
// rate-weighted access latency.
func (e *Explorer) Evaluate(p DesignPoint, tr workload.Traffic) (Evaluation, error) {
	return e.EvaluateContext(context.Background(), p, tr)
}

// EvaluateContext is Evaluate with cooperative cancellation of the
// underlying characterization (see CharacterizeContext).
func (e *Explorer) EvaluateContext(ctx context.Context, p DesignPoint, tr workload.Traffic) (Evaluation, error) {
	if err := tr.Validate(); err != nil {
		return Evaluation{}, err
	}
	// The static traffic table is stated at the Table I 5 GHz clock; a
	// point with a frequency override generates proportionally scaled
	// demand. At the default clock this is exactly the identity, so every
	// historical evaluation is bit-for-bit unchanged.
	tr = tr.AtFrequency(p.Frequency())
	r, err := e.CharacterizeContext(ctx, p)
	if err != nil {
		return Evaluation{}, err
	}
	dynamic := tr.ReadsPerSec*r.ReadEnergy + tr.WritesPerSec*r.WriteEnergy
	device := r.LeakagePower + r.RefreshPower + dynamic
	total := e.Cooling.TotalPower(device, p.Temperature)

	agg := tr.ReadsPerSec*r.ReadLatency + tr.WritesPerSec*r.WriteLatency
	util, contention := contentionModel(tr, r)

	ev := Evaluation{
		Point:            p,
		Traffic:          tr,
		Array:            r,
		DevicePower:      device,
		CoolingPower:     total - device,
		TotalPower:       total,
		AggregateLatency: agg,
		Utilization:      util,
		ContentionFactor: contention,
		LifetimeYears:    lifetimeYears(r, p, tr),
	}
	ev.Slowdown = e.slowdown(ev)
	return ev, nil
}

// slowdown applies the paper's performance check: a solution "above a
// relative value of 1 in total LLC latency" against 350 K SRAM on the same
// benchmark, or demand exceeding sustainable bandwidth, will negatively
// impact performance.
func (e *Explorer) slowdown(ev Evaluation) bool {
	demand := ev.Traffic.ReadsPerSec + ev.Traffic.WritesPerSec
	if demand > ev.Array.BandwidthAccesses {
		return true
	}
	base, err := e.Characterize(Baseline())
	if err != nil {
		return false
	}
	baseAgg := ev.Traffic.ReadsPerSec*base.ReadLatency + ev.Traffic.WritesPerSec*base.WriteLatency
	return ev.AggregateLatency > baseAgg*(1+1e-12)
}

// contentionModel estimates bank-conflict queuing: the LLC's banks act as
// servers with deterministic service time (the random cycle), so the mean
// M/D/1 waiting time inflates effective latency by 1 + rho/(2(1-rho)). At
// or beyond saturation the factor is unbounded; it is capped at 100x for
// reporting.
func contentionModel(tr workload.Traffic, r array.Result) (utilization, factor float64) {
	demand := tr.ReadsPerSec + tr.WritesPerSec
	if r.BandwidthAccesses <= 0 {
		return math.Inf(1), 100
	}
	rho := demand / r.BandwidthAccesses
	if rho >= 1 {
		return rho, 100
	}
	return rho, 1 + rho/(2*(1-rho))
}

// lifetimeYears estimates the wear-out horizon with ideal wear leveling:
// endurance cycles per cell, writes spread across all blocks.
func lifetimeYears(r array.Result, p DesignPoint, tr workload.Traffic) float64 {
	if math.IsInf(p.Cell.EnduranceCycles, 1) {
		return math.Inf(1)
	}
	if tr.WritesPerSec == 0 {
		return math.Inf(1)
	}
	blocks := float64(p.Capacity()) / 64
	writesPerBlockPerSec := tr.WritesPerSec / blocks
	seconds := p.Cell.EnduranceCycles / writesPerBlockPerSec
	return seconds / (365.25 * 24 * 3600)
}

// EvaluateAll crosses design points with benchmarks; results are indexed
// [point][benchmark] following the input orders. The grid is evaluated on
// the explorer's worker pool (Workers knob); cells land at their input
// positions, so the output is identical to the serial walk cell for cell.
func (e *Explorer) EvaluateAll(points []DesignPoint, traffics []workload.Traffic) ([][]Evaluation, error) {
	return e.EvaluateAllContext(context.Background(), points, traffics)
}

// EvaluateAllContext is EvaluateAll with cooperative cancellation: once ctx
// is done, no further grid cells are dispatched, in-flight characterizations
// abort at their next candidate, and the sweep returns the cancellation
// error — so an abandoned HTTP request (or a Ctrl-C on the CLI) stops
// burning worker-pool CPU mid-sweep.
func (e *Explorer) EvaluateAllContext(ctx context.Context, points []DesignPoint, traffics []workload.Traffic) ([][]Evaluation, error) {
	out := make([][]Evaluation, len(points))
	for i := range out {
		out[i] = make([]Evaluation, len(traffics))
	}
	cols := len(traffics)
	order := sweepOrder(points, cols)
	err := parallel.ForEachContext(ctx, len(points)*cols, e.Workers, func(k int) error {
		cell := order[k]
		i, j := cell/cols, cell%cols
		ev, err := e.EvaluateContext(ctx, points[i], traffics[j])
		if err != nil {
			return err
		}
		out[i][j] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WarmFamiliesContext characterizes one representative per sweep family
// (the first member in input order) on the worker pool, so a subsequent
// parallel sweep over the same points finds every family's organization
// ranking already established and the array layer's pruned search
// re-verifies neighbors instead of cold-starting each one concurrently.
// Every representative is a member of the sweep itself, so the pass adds
// no design points — it only fills the characterization cache in an order
// that maximizes warm starts. Results are unaffected either way; this is
// purely a scheduling optimization.
func (e *Explorer) WarmFamiliesContext(ctx context.Context, points []DesignPoint) error {
	seen := make(map[string]bool, len(points))
	var reps []DesignPoint
	for _, p := range points {
		k := sweepFamilyKey(p)
		if !seen[k] {
			seen[k] = true
			reps = append(reps, p)
		}
	}
	return parallel.ForEachContext(ctx, len(reps), e.Workers, func(i int) error {
		_, err := e.CharacterizeContext(ctx, reps[i])
		return err
	})
}

// FamilyKey groups design points that differ only along the delta axes of
// the array search — temperature and die count. It deliberately mirrors
// the family key of the array package's ranking memo: solving one member
// seeds the organization ordering for the rest. The sweep scheduler walks
// families contiguously, and the cluster coordinator leases whole families
// to one worker so every replica's rankingMemo warm-starts stay effective.
func FamilyKey(p DesignPoint) string {
	return fmt.Sprintf("%s|%v|%d|%s|%v", p.Cell.Name, p.Cell.Tech, p.Capacity(), p.Node.Name, p.Style)
}

// sweepFamilyKey is the historical unexported spelling.
func sweepFamilyKey(p DesignPoint) string { return FamilyKey(p) }

// FamilyOrder returns a permutation of point indices that walks each
// characterization family contiguously, members ordered by (dies,
// temperature) so consecutive positions are neighboring design points. It
// is the schedule both the in-process sweep (sweepOrder) and the cluster
// coordinator's lease decomposition dispatch in: the array layer's pruned
// search then re-verifies a warm ranking instead of cold-starting per
// point. Only ORDER is defined here — callers still land results at input
// positions, so outputs stay byte-identical to the naive walk.
func FamilyOrder(points []DesignPoint) []int {
	type member struct{ point, seq int }
	families := make(map[string][]member)
	var keys []string
	for i, p := range points {
		k := FamilyKey(p)
		if _, seen := families[k]; !seen {
			keys = append(keys, k)
		}
		families[k] = append(families[k], member{point: i, seq: i})
	}
	order := make([]int, 0, len(points))
	for _, k := range keys {
		ms := families[k]
		sort.SliceStable(ms, func(a, b int) bool {
			pa, pb := points[ms[a].point], points[ms[b].point]
			if pa.Dies != pb.Dies {
				return pa.Dies < pb.Dies
			}
			if pa.Temperature != pb.Temperature {
				return pa.Temperature < pb.Temperature
			}
			return ms[a].seq < ms[b].seq
		})
		for _, m := range ms {
			order = append(order, m.point)
		}
	}
	return order
}

// sweepOrder expands FamilyOrder over the points×traffics grid: each
// point's cells dispatch contiguously in benchmark order within the
// family-contiguous point walk. Only dispatch ORDER changes: every cell
// still lands at its input position, so the output grid — and every golden
// artifact derived from it — is byte-identical to the naive walk.
func sweepOrder(points []DesignPoint, cols int) []int {
	po := FamilyOrder(points)
	order := make([]int, 0, len(points)*cols)
	for _, i := range po {
		for j := 0; j < cols; j++ {
			order = append(order, i*cols+j)
		}
	}
	return order
}

// ReferenceBenchmark is the normalization workload of the paper's SPEC
// analyses (Fig. 1's namd).
const ReferenceBenchmark = "namd"

// BaselineEvaluation returns the universal denominator: 350 K 1-die SRAM
// running the reference benchmark.
func (e *Explorer) BaselineEvaluation() (Evaluation, error) {
	tr, err := workload.StaticTrafficFor(ReferenceBenchmark)
	if err != nil {
		return Evaluation{}, err
	}
	return e.Evaluate(Baseline(), tr)
}

// Relative expresses an evaluation against a baseline evaluation, the way
// every figure in the paper is normalized.
type Relative struct {
	Evaluation
	// RelPower is TotalPower over the baseline's (cooling included).
	RelPower float64
	// RelDevicePower excludes cooling on both sides.
	RelDevicePower float64
	// RelLatency is AggregateLatency over the baseline's.
	RelLatency float64
	// RelArea is footprint over the baseline's.
	RelArea float64
}

// Normalize divides an evaluation by a baseline.
func Normalize(ev, base Evaluation) Relative {
	return Relative{
		Evaluation:     ev,
		RelPower:       ev.TotalPower / base.TotalPower,
		RelDevicePower: ev.DevicePower / base.DevicePower,
		RelLatency:     ev.AggregateLatency / base.AggregateLatency,
		RelArea:        ev.Array.FootprintM2 / base.Array.FootprintM2,
	}
}

// Reliability analyzes the evaluation's design point under its benchmark's
// write stream with the LLC's SECDED code: soft write-error FIT (after one
// write-verify retry, the standard eNVM controller policy), wear-out
// lifetime, and the retention weak-bit tail for dynamic cells. The refresh
// interval is fixed at the hot-corner (350 K) design value, so cryogenic
// operation shows its retention-tail benefit.
func (ev Evaluation) Reliability() (reliability.Report, error) {
	cfg := reliability.Config{
		ECC:           reliability.SECDED(),
		WritesPerSec:  ev.Traffic.WritesPerSec,
		BlockDataBits: 64 * 8,
		TotalBits:     float64(ev.Point.Capacity()) * 8,
		RetentionS:    ev.Array.Retention,
		WriteRetries:  1,
	}
	if ev.Point.Cell.NeedsRefresh() {
		corner, err := tech.Node22HP().At(tech.TempHot350)
		if err != nil {
			return reliability.Report{}, err
		}
		cfg.RefreshIntervalS = ev.Point.Cell.Retention(corner) / 10
	}
	return reliability.Analyze(ev.Point.Cell, cfg)
}
