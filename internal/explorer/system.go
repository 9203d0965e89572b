package explorer

import (
	"context"
	"fmt"
	"sync/atomic"

	"coldtall/internal/cache"
	"coldtall/internal/dram"
	"coldtall/internal/sim"
	"coldtall/internal/workload"
)

// The cross-computing-stack layer: the paper's methodology extrapolates
// "whether an NVM-based solution will meet the total bandwidth and expected
// access latencies without incurring slowdown". SystemImpact makes that
// check quantitative end to end — synthetic workload through the Table I
// hierarchy for miss rates, the array model for LLC latency, the DRAM model
// for miss penalties, folded into average memory access time and a CPI/IPC
// estimate.

// Core timing assumptions for the AMAT/CPI model (Table I's 5 GHz core).
const (
	l1HitCycles = 4.0
	l2HitCycles = 12.0
	// dramRowHitRate is the assumed row-buffer locality of LLC misses.
	dramRowHitRate = 0.5
)

// Impact is the system-level consequence of one LLC choice under one
// benchmark.
type Impact struct {
	// Point and Benchmark identify the cell.
	Point     DesignPoint
	Benchmark string
	// Miss rates observed in the hierarchy simulation (local ratios).
	L1MissRate, L2MissRate, LLCMissRate float64
	// AMATSeconds is the average memory access time.
	AMATSeconds float64
	// CPI is the estimated cycles per instruction.
	CPI float64
	// RelIPC is performance relative to the 350 K SRAM baseline LLC for
	// the same benchmark (> 1 means this LLC makes the CPU faster).
	RelIPC float64
}

// missProfile holds the local miss ratios of one hierarchy simulation.
// They do not depend on the LLC technology, only on its geometry, which
// the study holds at Table I.
type missProfile struct {
	l1, l2, llc float64
}

// missMemoLimit bounds missMemo. The registry has a few dozen profiles;
// the bound only matters for a long-lived server fed user workloads, where
// the least-recently-used profile is evicted.
const missMemoLimit = 1024

// missMemo holds one hierarchy simulation per profile for the process. It
// is keyed by the whole profile, not its name: a user workload may share a
// stock benchmark's name with different parameters. The key spells the
// profile with %#v, which quotes strings and prints floats exactly, so two
// profiles share a key only when every field is equal.
var missMemo = cache.MustNew[missProfile](missMemoLimit)

// missReplays counts hierarchy replays, so tests can pin the memo's
// one-replay-per-profile guarantee.
var missReplays atomic.Int64

// simulateMisses returns the profile's local miss ratios per level,
// replaying its stand-in trace at most once per process while callers
// share the result. The replay runs under ctx; a ctx already done
// returns its error with no replay.
func simulateMisses(ctx context.Context, prof workload.Profile) (missProfile, error) {
	if err := ctx.Err(); err != nil {
		return missProfile{}, fmt.Errorf("explorer: miss replay of %s: %w", prof.Name, err)
	}
	mp, _, err := missMemo.Do(ctx, fmt.Sprintf("%#v", prof), func() (missProfile, error) { return replayMisses(ctx, prof) })
	return mp, err
}

// replayMisses runs the benchmark stand-in through the Table I hierarchy
// over the built-in measurement window.
func replayMisses(ctx context.Context, prof workload.Profile) (missProfile, error) {
	missReplays.Add(1)
	g, err := prof.Generator(1)
	if err != nil {
		return missProfile{}, err
	}
	r, err := sim.NewReplayer(sim.TableIConfig())
	if err != nil {
		return missProfile{}, err
	}
	w, err := r.Window(ctx, sim.FromGenerator(g), workload.WindowAccesses, nil)
	if err != nil {
		return missProfile{}, err
	}
	rate := func(i int) float64 {
		s := w.Levels[i]
		if s.Accesses() == 0 {
			return 0
		}
		return float64(s.Misses()) / float64(s.Accesses())
	}
	return missProfile{l1: rate(0), l2: rate(1), llc: rate(2)}, nil
}

// SystemImpact estimates the CPU-level effect of an LLC design point under
// a benchmark: AMAT through the simulated hierarchy, CPI via the
// benchmark's memory intensity, and IPC relative to the 350 K SRAM
// baseline. The miss replay and both characterizations run under ctx.
func (e *Explorer) SystemImpact(ctx context.Context, p DesignPoint, prof workload.Profile, mem dram.Model) (Impact, error) {
	if err := prof.Validate(); err != nil {
		return Impact{}, err
	}
	mp, err := simulateMisses(ctx, prof)
	if err != nil {
		return Impact{}, err
	}
	amat, err := e.amat(ctx, p, mp, mem)
	if err != nil {
		return Impact{}, err
	}
	// The IPC comparison holds the clock fixed at the point's own
	// frequency on both sides: RelIPC isolates what the LLC choice does to
	// the CPU. A frequency *sweep* layers the clock ratio back on top
	// (performance ∝ f × IPC) against the 5 GHz baseline.
	bp := Baseline()
	bp.FrequencyHz = p.FrequencyHz
	base, err := e.amat(ctx, bp, mp, mem)
	if err != nil {
		return Impact{}, err
	}

	cycle := 1.0 / p.Frequency()
	memPerInstr := prof.MemOpsPerKiloInstr / 1000
	// Split the benchmark's nominal CPI into an execution core and the
	// baseline memory component, then swap the memory component.
	cpiNominal := 1.0 / prof.IPC
	memCPIBase := memPerInstr * (base - l1HitCycles*cycle) / cycle
	cpiCore := cpiNominal - memCPIBase
	if cpiCore < 0.1 {
		cpiCore = 0.1
	}
	memCPI := memPerInstr * (amat - l1HitCycles*cycle) / cycle
	cpi := cpiCore + memCPI
	cpiBase := cpiCore + memCPIBase
	return Impact{
		Point:       p,
		Benchmark:   prof.Name,
		L1MissRate:  mp.l1,
		L2MissRate:  mp.l2,
		LLCMissRate: mp.llc,
		AMATSeconds: amat,
		CPI:         cpi,
		RelIPC:      cpiBase / cpi,
	}, nil
}

// amat folds the hierarchy levels into the average memory access time for
// the given LLC design point.
func (e *Explorer) amat(ctx context.Context, p DesignPoint, mp missProfile, mem dram.Model) (float64, error) {
	r, err := e.CharacterizeContext(ctx, p)
	if err != nil {
		return 0, err
	}
	cycle := 1.0 / p.Frequency()
	tL1 := l1HitCycles * cycle
	tL2 := l2HitCycles * cycle
	tLLC := r.ReadLatency
	tMem := mem.AverageLatency(dramRowHitRate)
	return tL1 + mp.l1*(tL2+mp.l2*(tLLC+mp.llc*tMem)), nil
}
