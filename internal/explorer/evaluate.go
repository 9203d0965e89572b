package explorer

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"coldtall/internal/array"
	"coldtall/internal/cache"
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
// reason.
// v4: wire resistivity comes from the closed-form Bloch–Grüneisen integral
// instead of a 2000-panel Simpson rule; every wire-dependent number moves
// in its last digits.
const ModelVersion = "coldtall-physics-v4"

// charCapacity bounds the characterization cache. A full export
// characterizes under a hundred distinct points and a long serve run a few
// thousand, so no workload evicts; the bound only keeps a server fed
// endless never-seen points from growing without limit. An evicted point
// is one tier read away when persistence is attached, otherwise one
// optimizer run.
const charCapacity = 1 << 14

// charState is the characterization memory an Explorer computes through:
// the result cache (LRU, singleflight guard and optional persistence tier
// in one) and the optimize-invocation counter. It is a separate shared
// structure so explorers that differ only in their cooling environment
// (cooling touches EvaluateContext, never CharacterizeContext) can share
// one memory — see WithCoolingShared.
type charState struct {
	cache *cache.Cache[array.Result]

	// optimizeCalls counts actual array searches (cache,
	// flight and persistence hits excluded) — observable via the
	// concurrency tests.
	optimizeCalls atomic.Int64
}

// Explorer evaluates design points under workloads. The zero value is not
// usable; construct with New.
//
// An Explorer is safe for concurrent use: the characterization cache is
// singleflight-guarded, so concurrent callers of the same design point share
// one array optimization, and EvaluateAllContext fans the
// points×benchmarks grid out over a bounded worker pool with deterministic
// output ordering.
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
		chars:   &charState{cache: cache.MustNew[array.Result](charCapacity)},
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
// cooling only folds into EvaluateContext's power accounting — so
// sub-studies that sweep cooler classes (the Sec. III-C sensitivity) reuse
// every characterization instead of re-running the optimizer per class.
func (e *Explorer) WithCoolingShared(c cryo.Cooling) (*Explorer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Explorer{Cooling: c, Workers: e.Workers, chars: e.chars}, nil
}

// SetPersistence attaches a persistent result store behind the
// characterization cache as its tier: misses fall through to it, fills
// write through to it, and a restarted process re-serves every previously
// characterized point without re-running the optimizer. Set it before the
// explorer takes traffic; the field is not synchronized against in-flight
// sweeps.
func (e *Explorer) SetPersistence(t cache.Tier[array.Result]) { e.chars.cache.SetTier(t) }

// CharacterizeContext runs (and caches) the EDP-optimized array
// characterization of a design point. Concurrent callers of the same point
// share a single in-flight optimization: the first caller computes, the
// rest wait on it, so a cold sweep never runs the expensive search twice
// for one key. The underlying organization search aborts once ctx is done,
// and the failed characterization is not cached, so a later caller with a
// live context recomputes it cleanly.
//
// Concurrent callers of the same key share one flight, which runs under
// the first caller's context. A caller waiting on it returns as soon as
// its own ctx is done; if the first caller is cancelled mid-search, a
// waiting caller whose ctx is still live recomputes the point under its
// own (see cache.Cache.Do).
func (e *Explorer) CharacterizeContext(ctx context.Context, p DesignPoint) (array.Result, error) {
	if err := p.Validate(); err != nil {
		return array.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return array.Result{}, fmt.Errorf("explorer: characterizing %s: %w", p.Label, err)
	}
	cs := e.chars
	r, _, err := cs.cache.Do(ctx, p.Key(), func() (array.Result, error) {
		cs.optimizeCalls.Add(1)
		r, _, err := array.OptimizeWithStats(ctx, p.arrayConfig())
		if err != nil {
			return array.Result{}, fmt.Errorf("explorer: characterizing %s: %w", p.Label, err)
		}
		return r, nil
	})
	return r, err
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
	return e.chars.cache.Get(p.Key())
}

// EvaluateContext computes the application-level metrics of one design
// point under one benchmark's traffic, following the paper's methodology:
// total LLC power is leakage plus refresh plus rate-weighted access energy,
// cooling is charged below the cooling threshold, and total LLC latency is
// the rate-weighted access latency. The underlying characterization runs
// under ctx (see CharacterizeContext).
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
	if ev.Slowdown, err = e.slowdown(ctx, ev); err != nil {
		return Evaluation{}, err
	}
	return ev, nil
}

// slowdown applies the paper's performance check: a solution "above a
// relative value of 1 in total LLC latency" against 350 K SRAM on the same
// benchmark, or demand exceeding sustainable bandwidth, will negatively
// impact performance. The baseline is characterized under ctx, and a
// failure to characterize it fails the evaluation.
func (e *Explorer) slowdown(ctx context.Context, ev Evaluation) (bool, error) {
	demand := ev.Traffic.ReadsPerSec + ev.Traffic.WritesPerSec
	if demand > ev.Array.BandwidthAccesses {
		return true, nil
	}
	base, err := e.CharacterizeContext(ctx, Baseline())
	if err != nil {
		return false, err
	}
	baseAgg := ev.Traffic.ReadsPerSec*base.ReadLatency + ev.Traffic.WritesPerSec*base.WriteLatency
	return ev.AggregateLatency > baseAgg*(1+1e-12), nil
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

// EvaluateAllContext crosses design points with benchmarks; results are
// indexed [point][benchmark] following the input orders. The grid is
// evaluated on the explorer's worker pool (Workers knob); cells land at
// their input positions, so the output is identical to the serial walk cell
// for cell. It is EvaluateAllProgress without a progress hook.
func (e *Explorer) EvaluateAllContext(ctx context.Context, points []DesignPoint, traffics []workload.Traffic) ([][]Evaluation, error) {
	return e.EvaluateAllProgress(ctx, points, traffics, nil)
}

// EvaluateAllProgress is the one sweep engine: the synchronous /v1/sweep,
// the async sweep job, Table II's candidate ranking and every figure,
// table and extension study of the root package run it (or its first half,
// CharacterizeAll).
//
// The schedule is "characterize once, evaluate many": CharacterizeAll
// fills the cache with the grid's points, then the cells, which are
// arithmetic on the warm cache, run on the pool. A point already cached
// (or held by the persistence tier) costs a lookup, which is how a
// restarted sweep job resumes. The failing point at the lowest input index
// fails the sweep; otherwise the lowest failing cell does.
//
// progress, when not nil, is called as cells complete with the cumulative
// count (concurrently and possibly out of order; see
// parallel.ForEachProgressContext). Once ctx is done no further work is
// dispatched, in-flight searches abort at their next candidate, and the
// sweep returns the cancellation error.
func (e *Explorer) EvaluateAllProgress(ctx context.Context, points []DesignPoint, traffics []workload.Traffic, progress func(done int)) ([][]Evaluation, error) {
	out := make([][]Evaluation, len(points))
	for i := range out {
		out[i] = make([]Evaluation, len(traffics))
	}
	cols := len(traffics)
	if len(points)*cols == 0 {
		return out, nil
	}
	if _, err := e.CharacterizeAll(ctx, points); err != nil {
		return nil, err
	}
	err := parallel.ForEachProgressContext(ctx, len(points)*cols, e.Workers, func(cell int) error {
		i, j := cell/cols, cell%cols
		ev, err := e.EvaluateContext(ctx, points[i], traffics[j])
		if err != nil {
			return err
		}
		out[i][j] = ev
		return nil
	}, progress)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CharacterizeAll characterizes points on the explorer's worker pool: first
// the 350 K SRAM baseline that every slowdown check and normalization
// reads, then the points in input order. Results land at input positions,
// so the output is identical to a serial walk. When several points fail,
// the error is the one at the lowest input index, at any worker count;
// once ctx is done no further point is dispatched.
func (e *Explorer) CharacterizeAll(ctx context.Context, points []DesignPoint) ([]array.Result, error) {
	out := make([]array.Result, len(points))
	if len(points) == 0 {
		return out, nil
	}
	if _, err := e.CharacterizeContext(ctx, Baseline()); err != nil {
		return nil, err
	}
	err := parallel.ForEachContext(ctx, len(points), e.Workers, func(i int) error {
		r, err := e.CharacterizeContext(ctx, points[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReferenceBenchmark is the normalization workload of the paper's SPEC
// analyses (Fig. 1's namd).
const ReferenceBenchmark = "namd"

// BaselineEvaluation returns the universal denominator: 350 K 1-die SRAM
// running the reference benchmark.
func (e *Explorer) BaselineEvaluation(ctx context.Context) (Evaluation, error) {
	tr, err := workload.StaticTrafficFor(ReferenceBenchmark)
	if err != nil {
		return Evaluation{}, err
	}
	return e.EvaluateContext(ctx, Baseline(), tr)
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
