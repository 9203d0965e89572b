package explorer

import (
	"context"

	"coldtall/internal/dram"
	"coldtall/internal/workload"
)

// The cross-computing-stack layer: the paper's methodology extrapolates
// "whether an NVM-based solution will meet the total bandwidth and expected
// access latencies without incurring slowdown". SystemImpact makes that
// check quantitative end to end — the profile's built-in measurement
// window (workload.Window) for miss rates, the array model for LLC
// latency, the DRAM model for miss penalties, folded into average memory
// access time and a CPI/IPC estimate.

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

// SystemImpact estimates the CPU-level effect of an LLC design point under
// a benchmark: AMAT through the simulated hierarchy, CPI via the
// benchmark's memory intensity, and IPC relative to the 350 K SRAM
// baseline. The window read and both characterizations run under ctx.
func (e *Explorer) SystemImpact(ctx context.Context, p DesignPoint, prof workload.Profile, mem dram.Model) (Impact, error) {
	w, err := workload.Window(ctx, prof)
	if err != nil {
		return Impact{}, err
	}
	mr := w.MissRatios
	amat, err := e.amat(ctx, p, mr, mem)
	if err != nil {
		return Impact{}, err
	}
	// The IPC comparison holds the clock fixed at the point's own
	// frequency on both sides: RelIPC isolates what the LLC choice does to
	// the CPU. A frequency *sweep* layers the clock ratio back on top
	// (performance ∝ f × IPC) against the 5 GHz baseline.
	bp := Baseline()
	bp.FrequencyHz = p.FrequencyHz
	base, err := e.amat(ctx, bp, mr, mem)
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
		L1MissRate:  mr.L1D,
		L2MissRate:  mr.L2,
		LLCMissRate: mr.LLC,
		AMATSeconds: amat,
		CPI:         cpi,
		RelIPC:      cpiBase / cpi,
	}, nil
}

// amat folds the hierarchy levels into the average memory access time for
// the given LLC design point.
func (e *Explorer) amat(ctx context.Context, p DesignPoint, mr workload.MissRatios, mem dram.Model) (float64, error) {
	r, err := e.CharacterizeContext(ctx, p)
	if err != nil {
		return 0, err
	}
	cycle := 1.0 / p.Frequency()
	tL1 := l1HitCycles * cycle
	tL2 := l2HitCycles * cycle
	tLLC := r.ReadLatency
	tMem := mem.AverageLatency(dramRowHitRate)
	return tL1 + mr.L1D*(tL2+mr.L2*(tLLC+mr.LLC*tMem)), nil
}
