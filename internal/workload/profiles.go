// Package workload defines the 23 SPECrate CPU2017 benchmarks the paper
// evaluates, in two interchangeable forms:
//
//  1. A static per-benchmark LLC traffic table (reads/s and writes/s under
//     continuous operation at 5 GHz across 8 rate copies) standing in for
//     the Sniper-measured statistics the paper uses. These rates span the
//     paper's range — povray below 5e4 reads/s at the quiet end, mcf near
//     2e8 reads/s (and the lowest write traffic) at the loud end — and are
//     the calibration targets for every traffic-dependent figure.
//
//  2. Synthetic locality profiles from which internal/trace generators and
//     the internal/sim hierarchy regenerate comparable traffic, replacing
//     the Sniper+SPEC substrate that is unavailable here.
package workload

import (
	"context"
	"fmt"
	"sync/atomic"

	"coldtall/internal/cache"
	"coldtall/internal/parallel"
	"coldtall/internal/sim"
	"coldtall/internal/trace"
)

// Machine constants from Table I.
const (
	// DefaultFrequencyHz is the Table I core clock. Every static traffic
	// table and profile calibration is stated at this clock; the explorer
	// rescales traffic for design points that override it (the frequency
	// axis of the extension studies).
	DefaultFrequencyHz = 5e9
	// Cores is the number of rate copies.
	Cores = 8
)

// BigPattern selects the long-range access behaviour of a profile.
type BigPattern int

const (
	// PatternChase is dependent pointer chasing (mcf, omnetpp).
	PatternChase BigPattern = iota
	// PatternStream is strided scanning (lbm, bwaves).
	PatternStream
)

// Profile parametrizes the synthetic stand-in for one benchmark.
type Profile struct {
	// Name is the SPEC benchmark name (short form).
	Name string
	// Suite is "intrate" or "fprate".
	Suite string
	// Description summarizes the application domain.
	Description string
	// HotSetBytes is the cache-resident working set (hit in L1/L2).
	HotSetBytes uint64
	// BigSetBytes is the LLC-defeating far working set.
	BigSetBytes uint64
	// Big selects the far-region pattern.
	Big BigPattern
	// LLCFrac is the fraction of memory operations that reference the
	// far region (and thus reach the LLC).
	LLCFrac float64
	// ZipfSkew shapes the hot-region reference stream.
	ZipfSkew float64
	// WriteFrac is the store fraction of memory operations.
	WriteFrac float64
	// MemOpsPerKiloInstr is memory operations per 1000 instructions.
	MemOpsPerKiloInstr float64
	// IPC is the nominal instructions-per-cycle of the benchmark.
	IPC float64
}

// Validate reports parameter errors.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty benchmark name")
	case p.HotSetBytes < 4096 || p.BigSetBytes < 1<<20:
		return fmt.Errorf("workload: %s: working sets too small", p.Name)
	case p.LLCFrac < 0 || p.LLCFrac > 1:
		return fmt.Errorf("workload: %s: LLC fraction %g out of range", p.Name, p.LLCFrac)
	case p.ZipfSkew <= 1:
		return fmt.Errorf("workload: %s: zipf skew must be > 1", p.Name)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("workload: %s: write fraction out of range", p.Name)
	case p.MemOpsPerKiloInstr <= 0 || p.MemOpsPerKiloInstr > 1000:
		return fmt.Errorf("workload: %s: mem ops per kiloinstruction out of range", p.Name)
	case p.IPC <= 0 || p.IPC > 8:
		return fmt.Errorf("workload: %s: IPC out of range", p.Name)
	}
	return nil
}

// Generator builds the synthetic access stream for the profile.
func (p Profile) Generator(seed int64) (trace.Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hot, err := trace.NewZipf(trace.Region{Base: 0, Size: p.HotSetBytes}, p.ZipfSkew, p.WriteFrac, seed)
	if err != nil {
		return nil, err
	}
	farRegion := trace.Region{Base: 1 << 40, Size: p.BigSetBytes}
	var far trace.Generator
	switch p.Big {
	case PatternStream:
		far, err = trace.NewStream(farRegion, 1, p.WriteFrac, seed+1)
	default:
		far, err = trace.NewPointerChase(farRegion, p.WriteFrac, seed+1)
	}
	if err != nil {
		return nil, err
	}
	if p.LLCFrac <= 0 {
		return hot, nil
	}
	if p.LLCFrac >= 1 {
		return far, nil
	}
	return trace.NewMixture([]trace.Generator{hot, far}, []float64{1 - p.LLCFrac, p.LLCFrac}, seed+2)
}

// Profiles returns the 23 SPECrate 2017 benchmark stand-ins. LLCFrac values
// are derived from each benchmark's static traffic target: rate =
// Cores * IPC * DefaultFrequencyHz * (MemOpsPerKiloInstr/1000) * LLCFrac.
func Profiles() []Profile {
	mk := func(name, suite, desc string, hotKB, bigMB uint64, pat BigPattern,
		llcFrac, skew, wf, memKI, ipc float64) Profile {
		return Profile{
			Name: name, Suite: suite, Description: desc,
			HotSetBytes: hotKB << 10, BigSetBytes: bigMB << 20, Big: pat,
			LLCFrac: llcFrac, ZipfSkew: skew, WriteFrac: wf,
			MemOpsPerKiloInstr: memKI, IPC: ipc,
		}
	}
	return []Profile{
		// --- SPECrate 2017 Integer.
		mk("perlbench", "intrate", "Perl interpreter", 24, 64, PatternChase, 2.0e-4, 1.5, 0.30, 320, 1.2),
		mk("gcc", "intrate", "C compiler", 24, 128, PatternChase, 7.5e-4, 1.4, 0.35, 340, 1.0),
		mk("mcf", "intrate", "vehicle scheduling (network simplex)", 20, 512, PatternChase, 3.2e-2, 1.3, 0.02, 350, 0.4),
		mk("omnetpp", "intrate", "discrete event simulation", 24, 256, PatternChase, 4.5e-3, 1.3, 0.30, 330, 0.7),
		mk("xalancbmk", "intrate", "XML transformation", 24, 96, PatternChase, 5.5e-4, 1.5, 0.25, 310, 1.1),
		mk("x264", "intrate", "video encoding", 48, 64, PatternStream, 1.0e-4, 1.6, 0.30, 280, 1.5),
		mk("deepsjeng", "intrate", "chess (alpha-beta search)", 32, 48, PatternChase, 5.0e-5, 1.6, 0.28, 300, 1.3),
		mk("leela", "intrate", "Go (Monte Carlo tree search)", 28, 48, PatternChase, 1.0e-5, 1.7, 0.26, 290, 1.2),
		mk("exchange2", "intrate", "recursive puzzle solver", 16, 8, PatternChase, 8.0e-7, 1.9, 0.25, 250, 1.8),
		mk("xz", "intrate", "data compression", 32, 192, PatternChase, 3.3e-3, 1.3, 0.29, 330, 0.8),

		// --- SPECrate 2017 Floating Point.
		mk("bwaves", "fprate", "explicit CFD (blast waves)", 32, 384, PatternStream, 1.1e-2, 1.3, 0.24, 360, 0.8),
		mk("cactuBSSN", "fprate", "numerical relativity", 32, 256, PatternStream, 4.8e-3, 1.3, 0.29, 340, 0.8),
		mk("namd", "fprate", "molecular dynamics", 32, 128, PatternChase, 1.1e-3, 1.4, 0.23, 320, 1.0),
		mk("parest", "fprate", "finite element solver", 32, 192, PatternStream, 7.0e-4, 1.4, 0.25, 330, 0.9),
		mk("povray", "fprate", "ray tracing", 24, 16, PatternChase, 1.6e-6, 1.8, 0.25, 280, 1.4),
		mk("lbm", "fprate", "lattice Boltzmann fluid dynamics", 24, 384, PatternStream, 1.4e-2, 1.3, 0.29, 380, 0.7),
		mk("wrf", "fprate", "weather forecasting", 32, 256, PatternStream, 2.4e-3, 1.4, 0.27, 340, 0.9),
		mk("blender", "fprate", "3D rendering", 48, 96, PatternChase, 2.1e-4, 1.5, 0.26, 300, 1.2),
		mk("cam4", "fprate", "atmosphere modeling", 32, 256, PatternStream, 1.4e-3, 1.4, 0.25, 330, 0.9),
		mk("imagick", "fprate", "image manipulation", 32, 48, PatternStream, 3.3e-5, 1.6, 0.25, 300, 1.2),
		mk("nab", "fprate", "molecular modeling", 28, 32, PatternChase, 5.5e-5, 1.6, 0.24, 290, 1.2),
		mk("fotonik3d", "fprate", "electromagnetic solver (FDTD)", 32, 320, PatternStream, 7.2e-3, 1.3, 0.29, 360, 0.8),
		mk("roms", "fprate", "ocean modeling", 32, 288, PatternStream, 5.5e-3, 1.3, 0.29, 350, 0.8),
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists all benchmark names in canonical order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// The built-in measurement window: `eval -config` with simulate,
// `coldtall traffic` and the system-impact miss ratios all read Window,
// which replays WindowAccesses accesses from generators seeded windowSeed.
const (
	WindowAccesses = 400000
	windowSeed     = 1
)

// MissRatios are the local miss ratios (misses per lookup) of the Table I
// hierarchy's levels over a window. They do not depend on the LLC
// technology, only on its geometry, which the study holds at Table I.
type MissRatios struct {
	L1D, L2, LLC float64
}

// Measured is what one replay window yields: the extrapolated LLC
// traffic and the per-level miss ratios.
type Measured struct {
	Traffic    Traffic
	MissRatios MissRatios
}

// windowMemoLimit bounds windowMemo. The registry has a few dozen
// profiles; the bound only matters for a long-lived server fed user
// workloads, where the least-recently-used profile is evicted.
const windowMemoLimit = 1024

// windowMemo holds one built-in window per profile for the process, keyed
// by the whole profile, not its name: a user workload may share a stock
// benchmark's name with different parameters. %#v quotes strings and
// prints floats exactly, so two profiles share a key only when every
// field is equal.
var windowMemo = cache.MustNew[Measured](windowMemoLimit)

// windowReplays counts the replays behind windowMemo, so tests can pin
// its one-replay-per-profile guarantee.
var windowReplays atomic.Int64

// Window returns the profile's built-in measurement window: WindowAccesses
// accesses under a fixed seed, replayed at most once per process while
// concurrent callers share the result. If ctx is already done, Window
// returns its error whether or not the window is memoized; a replay that
// ctx cuts short is not memoized.
func Window(ctx context.Context, p Profile) (Measured, error) {
	if err := ctx.Err(); err != nil {
		return Measured{}, fmt.Errorf("workload: window of %s: %w", p.Name, err)
	}
	m, _, err := windowMemo.Do(ctx, fmt.Sprintf("%#v", p), func() (Measured, error) {
		windowReplays.Add(1)
		return replay(ctx, p, WindowAccesses, windowSeed)
	})
	return m, err
}

// Measure replays the profile through the Table I hierarchy over a window
// of the given length and seed, and returns its extrapolated traffic: the
// general form of Window, for distillation's candidate windows and tests.
// ctx stops the replay.
func Measure(ctx context.Context, p Profile, accesses int, seed int64) (Traffic, error) {
	m, err := replay(ctx, p, accesses, seed)
	return m.Traffic, err
}

// replay runs the profile's stand-in through sim's measurement window
// (sim.Replayer.Window), which warms the hierarchy on the first quarter
// of the accesses, and extrapolates continuous-operation LLC traffic the
// way the paper extrapolates Sniper access counts: per-copy access counts
// over simulated time, scaled to all rate copies.
func replay(ctx context.Context, p Profile, accesses int, seed int64) (Measured, error) {
	if accesses <= 0 {
		return Measured{}, fmt.Errorf("workload: accesses must be positive")
	}
	g, err := p.Generator(seed)
	if err != nil {
		return Measured{}, err
	}
	r, err := sim.NewReplayer(sim.TableIConfig())
	if err != nil {
		return Measured{}, err
	}
	w, err := r.Window(ctx, sim.FromGenerator(g), accesses, nil)
	if err != nil {
		return Measured{}, err
	}
	llc := w.LLC()
	return Measured{
		Traffic: Extrapolate(p.Name, llc.Reads, llc.Writes, w.Accesses, p.MemOpsPerKiloInstr, p.IPC),
		MissRatios: MissRatios{
			L1D: w.Levels[0].MissRate(),
			L2:  w.Levels[1].MissRate(),
			LLC: llc.MissRate(),
		},
	}, nil
}

// Extrapolate converts an LLC access count measured over a replay window
// into continuous-operation rates the way the paper extrapolates Sniper
// statistics: the window's accesses imply simulated wall-clock time
// through the core model (memory operations per kiloinstruction and IPC
// at the Table I clock), and per-copy LLC counts scale to all rate
// copies. It is the single formula shared by profile calibration, llcsim,
// and trace ingestion.
func Extrapolate(name string, llcReads, llcWrites, accesses uint64, memOpsPerKiloInstr, ipc float64) Traffic {
	instructions := float64(accesses) * 1000 / memOpsPerKiloInstr
	seconds := instructions / ipc / DefaultFrequencyHz
	return Traffic{
		Benchmark:    name,
		ReadsPerSec:  float64(llcReads) / seconds * Cores,
		WritesPerSec: float64(llcWrites) / seconds * Cores,
	}
}

// MeasureAll reads every benchmark stand-in's built-in window on the
// shared worker pool and returns the traffic table in canonical order —
// the full Sniper-substitute run the static table is calibrated against.
// Each window replays from a fixed seed, so the table is identical at any
// worker count. Once ctx is done no further benchmark starts, running
// replays stop at their next chunk, and the call returns ctx's error.
func MeasureAll(ctx context.Context) ([]Traffic, error) {
	profiles := Profiles()
	return parallel.MapContext(ctx, len(profiles), 0, func(i int) (Traffic, error) {
		m, err := Window(ctx, profiles[i])
		return m.Traffic, err
	})
}
