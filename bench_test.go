package coldtall

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=. -benchmem). One benchmark per artifact:
//
//	BenchmarkFig1TemperaturePowerSweep    Fig. 1
//	BenchmarkFig3ArrayCharacterization    Fig. 3
//	BenchmarkFig4TwoBenchmarks            Fig. 4
//	BenchmarkFig5SpecSweepCryo            Fig. 5
//	BenchmarkFig6ENVM3DCharacterization   Fig. 6
//	BenchmarkFig7SpecSweepENVM            Fig. 7
//	BenchmarkTable1Config                 Table I
//	BenchmarkTable2OptimalChoice          Table II
//	BenchmarkCoolingOverheadSweep         Sec. III-C sensitivity
//
// plus ablation benches for the design choices DESIGN.md calls out
// (optimization target, 3D integration style, tentpole width, traffic
// source) and micro-benchmarks of the heavy substrates (array optimizer,
// cache simulator, trace generators).
//
// Figure benches report headline reproduction numbers via b.ReportMetric:
// e.g. Fig. 1 reports the 77 K power reduction factor, Fig. 6 the 8-die
// SRAM area reduction.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"coldtall/internal/array"
	"coldtall/internal/cache"
	"coldtall/internal/cell"
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/sim"
	"coldtall/internal/stack"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// benchStudy is shared across benchmarks: the first user pays the
// characterization cost, later iterations measure the analysis layer, which
// is how the tool is used interactively.
var (
	benchOnce  sync.Once
	benchShare *Study
)

func sharedStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() { benchShare = NewStudy() })
	return benchShare
}

func BenchmarkFig1TemperaturePowerSweep(b *testing.B) {
	s := sharedStudy(b)
	var rows []Fig1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: device-power reduction at 77 K vs 350 K (paper: >50x).
	var at77, at350 float64
	for _, r := range rows {
		switch r.TemperatureK {
		case 77:
			at77 = r.RelDevicePower
		case 350:
			at350 = r.RelDevicePower
		}
	}
	b.ReportMetric(at350/at77, "x-power-reduction-77K")
}

func BenchmarkFig3ArrayCharacterization(b *testing.B) {
	s := sharedStudy(b)
	var rows []Fig3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Cell == "SRAM" && r.TemperatureK == 77 {
			b.ReportMetric((1-r.RelReadLatency)*100, "%-latency-reduction-77K")
		}
	}
}

func BenchmarkFig4TwoBenchmarks(b *testing.B) {
	s := sharedStudy(b)
	var rows []Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Benchmark == "namd" && r.Cell == "SRAM" {
			b.ReportMetric(r.Rel350K/r.Rel77KCooled, "x-namd-sram-cooled-win")
		}
	}
}

func BenchmarkFig5SpecSweepCryo(b *testing.B) {
	s := sharedStudy(b)
	var rows []TrafficRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: cooled 77K eDRAM win on povray (paper: >2500x).
	var povrayRel, baseRel float64
	for _, r := range rows {
		if r.Benchmark != "povray" {
			continue
		}
		switch r.Label {
		case "77K 3T-eDRAM":
			povrayRel = r.RelTotalPower
		case "350K SRAM":
			baseRel = r.RelTotalPower
		}
	}
	b.ReportMetric(baseRel/povrayRel, "x-povray-cooled-win")
}

func BenchmarkFig6ENVM3DCharacterization(b *testing.B) {
	s := sharedStudy(b)
	var rows []Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Label {
		case "8-die SRAM":
			b.ReportMetric((1-r.RelArea)*100, "%-sram8-area-reduction")
		case "8-die PCM (optimistic)":
			b.ReportMetric(1/r.RelArea, "x-pcm8-density-vs-sram1")
		}
	}
}

func BenchmarkFig7SpecSweepENVM(b *testing.B) {
	s := sharedStudy(b)
	var rows []TrafficRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: 8-die PCM power win on mcf vs the SRAM baseline.
	var pcm8, sram1 float64
	for _, r := range rows {
		if r.Benchmark != "mcf" {
			continue
		}
		switch r.Label {
		case "8-die PCM (optimistic)":
			pcm8 = r.RelTotalPower
		case "1-die SRAM":
			sram1 = r.RelTotalPower
		}
	}
	b.ReportMetric(sram1/pcm8, "x-mcf-pcm8-win")
}

func BenchmarkTable1Config(b *testing.B) {
	var rows []Table1Row
	for i := 0; i < b.N; i++ {
		rows = Table1()
	}
	b.ReportMetric(float64(len(rows)), "parameters")
}

func BenchmarkTable2OptimalChoice(b *testing.B) {
	s := sharedStudy(b)
	var rows []Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "table-cells")
}

func BenchmarkCoolingOverheadSweep(b *testing.B) {
	s := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.CoolingSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md).

// BenchmarkAblationOptimizationTarget compares the organization search
// under its four objectives for the baseline SRAM LLC.
func BenchmarkAblationOptimizationTarget(b *testing.B) {
	for _, target := range []array.Target{array.OptimizeEDP, array.OptimizeLatency, array.OptimizeArea, array.OptimizeEnergy} {
		b.Run(target.String(), func(b *testing.B) {
			cfg := array.DefaultLLC(cell.NewSRAM6T(), 350, stack.Config{Dies: 1, Style: stack.TSVStack})
			cfg.Target = target
			var r array.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, _, err = array.OptimizeWithStats(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.ReadLatency*1e9, "ns-read")
			b.ReportMetric(r.FootprintM2*1e6, "mm2")
		})
	}
}

// BenchmarkAblationIntegrationStyle compares TSV, face-to-face and
// monolithic stacking at each style's maximum die count for optimistic STT.
func BenchmarkAblationIntegrationStyle(b *testing.B) {
	c, err := cell.Tentpole(cell.STTRAM, cell.Optimistic)
	if err != nil {
		b.Fatal(err)
	}
	for _, style := range []stack.Style{stack.TSVStack, stack.FaceToFace, stack.Monolithic} {
		b.Run(style.String(), func(b *testing.B) {
			cfg := array.DefaultLLC(c, 350, stack.Config{Dies: style.MaxDies(), Style: style})
			var r array.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, _, err = array.OptimizeWithStats(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.ReadLatency*1e9, "ns-read")
			b.ReportMetric(r.FootprintM2*1e6, "mm2")
		})
	}
}

// BenchmarkAblationTentpoleWidth reports how far apart the optimistic and
// pessimistic corners land for each eNVM (the width of the paper's
// tentpoles) at the application level.
func BenchmarkAblationTentpoleWidth(b *testing.B) {
	s := sharedStudy(b)
	tr, err := workload.StaticTrafficFor("omnetpp")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
		b.Run(tc.String(), func(b *testing.B) {
			var width float64
			for i := 0; i < b.N; i++ {
				opt, err := explorer.Stacked(tc, cell.Optimistic, 1)
				if err != nil {
					b.Fatal(err)
				}
				pess, err := explorer.Stacked(tc, cell.Pessimistic, 1)
				if err != nil {
					b.Fatal(err)
				}
				evOpt, err := s.Explorer().EvaluateContext(context.Background(), opt, tr)
				if err != nil {
					b.Fatal(err)
				}
				evPess, err := s.Explorer().EvaluateContext(context.Background(), pess, tr)
				if err != nil {
					b.Fatal(err)
				}
				width = evPess.TotalPower / evOpt.TotalPower
			}
			b.ReportMetric(width, "x-power-spread")
		})
	}
}

// BenchmarkAblationTrafficSource compares the static (Sniper-substitute)
// traffic table against simulator-measured traffic for mcf.
func BenchmarkAblationTrafficSource(b *testing.B) {
	b.Run("static", func(b *testing.B) {
		var tr workload.Traffic
		for i := 0; i < b.N; i++ {
			var err error
			tr, err = workload.StaticTrafficFor("mcf")
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(tr.ReadsPerSec, "reads/s")
	})
	b.Run("simulated", func(b *testing.B) {
		p, err := workload.ProfileByName("mcf")
		if err != nil {
			b.Fatal(err)
		}
		var tr workload.Traffic
		for i := 0; i < b.N; i++ {
			tr, err = workload.Measure(context.Background(), p, 200000, 42)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(tr.ReadsPerSec, "reads/s")
	})
}

// BenchmarkAblationCoolingCapacity sweeps the four cooler classes on the
// band-edge benchmark.
func BenchmarkAblationCoolingCapacity(b *testing.B) {
	tr, err := workload.StaticTrafficFor("xalancbmk")
	if err != nil {
		b.Fatal(err)
	}
	for _, cls := range cryo.Classes() {
		b.Run(cls.String(), func(b *testing.B) {
			e, err := explorer.WithCooling(cryo.Cooling{Class: cls, ThresholdK: 200})
			if err != nil {
				b.Fatal(err)
			}
			var ev explorer.Evaluation
			for i := 0; i < b.N; i++ {
				ev, err = e.EvaluateContext(context.Background(), explorer.EDRAMAt(77), tr)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ev.TotalPower*1e3, "mW-total")
		})
	}
}

// --- Sweep engine: serial vs parallel grid evaluation.

// evaluateAllGrid is the Table II point set crossed with the full
// 23-benchmark suite — the heaviest single sweep in the study.
func evaluateAllGrid(b *testing.B) ([]explorer.DesignPoint, []workload.Traffic) {
	b.Helper()
	points, err := explorer.TableIICandidates()
	if err != nil {
		b.Fatal(err)
	}
	return points, workload.StaticTraffic()
}

// benchmarkEvaluateAll measures a cold full-grid sweep at a fixed worker
// count: every iteration starts from an empty characterization cache, so
// the timing includes the array optimizations the pool actually spreads
// across cores. Compare Serial vs Parallel for the engine's speedup; on a
// single-core runner the two are expected to tie (the pool degrades to the
// serial path when only one CPU is available to the 0 = per-CPU setting,
// and goroutines cannot beat one core on CPU-bound work).
func benchmarkEvaluateAll(b *testing.B, workers int) {
	points, traffics := evaluateAllGrid(b)
	b.ReportMetric(float64(len(points)*len(traffics)), "grid-cells")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := explorer.New()
		e.Workers = workers
		if _, err := e.EvaluateAllContext(context.Background(), points, traffics); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateAllSerial(b *testing.B)   { benchmarkEvaluateAll(b, 1) }
func BenchmarkEvaluateAllParallel(b *testing.B) { benchmarkEvaluateAll(b, 0) }

// --- Substrate micro-benchmarks.

// BenchmarkArrayOptimize measures one full organization search (the
// CACTI-style inner loop every figure rests on).
func BenchmarkArrayOptimize(b *testing.B) {
	cfg := array.DefaultLLC(cell.NewSRAM6T(), 350, stack.Config{Dies: 1, Style: stack.TSVStack})
	for i := 0; i < b.N; i++ {
		if _, _, err := array.OptimizeWithStats(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrayCharacterize measures a single-organization evaluation.
func BenchmarkArrayCharacterize(b *testing.B) {
	cfg := array.DefaultLLC(cell.NewSRAM6T(), 350, stack.Config{Dies: 1, Style: stack.TSVStack})
	org := array.Organization{Banks: 16, Rows: 512, Cols: 1024, ColumnMux: 4}
	for i := 0; i < b.N; i++ {
		if _, err := array.Characterize(cfg, org); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSimulator measures hierarchy replay throughput.
func BenchmarkCacheSimulator(b *testing.B) {
	g, err := trace.NewZipf(trace.Region{Base: 0, Size: 64 << 20}, 1.3, 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	h, err := sim.NewHierarchy(sim.TableIConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(g.Next())
	}
}

// BenchmarkTraceGenerators measures access-stream generation rates.
func BenchmarkTraceGenerators(b *testing.B) {
	region := trace.Region{Base: 0, Size: 256 << 20}
	gens := map[string]trace.Generator{}
	if g, err := trace.NewStream(region, 1, 0.3, 1); err == nil {
		gens["stream"] = g
	}
	if g, err := trace.NewPointerChase(region, 0.3, 1); err == nil {
		gens["chase"] = g
	}
	if g, err := trace.NewZipf(region, 1.4, 0.3, 1); err == nil {
		gens["zipf"] = g
	}
	for name, g := range gens {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

// BenchmarkWorkloadMeasure measures the Sniper-substitute end to end.
func BenchmarkWorkloadMeasure(b *testing.B) {
	p, err := workload.ProfileByName("namd")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := workload.Measure(context.Background(), p, 100000, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCapacity sweeps the LLC capacity for the SRAM baseline
// (NVMExplorer's "system design space" input beyond the paper's fixed
// 16 MiB).
func BenchmarkAblationCapacity(b *testing.B) {
	s := sharedStudy(b)
	for _, mib := range []int64{4, 16, 64} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			p := explorer.Baseline()
			p.CapacityBytes = mib << 20
			var r array.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = s.Explorer().CharacterizeContext(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.ReadLatency*1e9, "ns-read")
			b.ReportMetric(r.LeakagePower*1e3, "mW-leak")
		})
	}
}

// BenchmarkExtensionSystemImpact measures the cross-stack AMAT/IPC study
// (simulation-backed, the heaviest extension artifact).
func BenchmarkExtensionSystemImpact(b *testing.B) {
	s := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.ImpactStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionColdAndTall measures the Sec. VI combined study.
func BenchmarkExtensionColdAndTall(b *testing.B) {
	s := sharedStudy(b)
	var sum ColdAndTallSummary
	for i := 0; i < b.N; i++ {
		var err error
		sum, err = s.ColdAndTallVerdict("povray")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1/sum.PowerWinner.RelTotalPower, "x-power-win-low-traffic")
}

// BenchmarkExtensionThermalClosure measures the Sec. V-A self-consistent
// operating-point study.
func BenchmarkExtensionThermalClosure(b *testing.B) {
	s := sharedStudy(b)
	var rows []ThermalRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.ThermalStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Benchmark == "mcf" && r.Environment == "air" {
			b.ReportMetric(r.OperatingK, "K-air-equilibrium")
		}
	}
}

// --- Serving stack (the `coldtall serve` fast paths).

// BenchmarkCacheHit measures the response-cache hit path the HTTP service
// answers repeated requests from: a sharded-LRU lookup returning a
// pre-rendered body, no characterization and no JSON encoding.
func BenchmarkCacheHit(b *testing.B) {
	c, err := cache.New[[]byte](1024)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 512)
	key := "characterize|SRAM|SRAM|350|1|TSV|0|"
	c.Add(key, body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("miss on a warmed key")
		}
	}
}

// BenchmarkCharacterizeColdWarm contrasts a cold characterization (fresh
// explorer, full organization search) with a warm repeat (explorer cache
// hit) — the latency gap the serve cache turns into an HTTP fast path.
// "Cold" means cold explorer caches; the process-wide family-ranking memo
// is warm after the first iteration.
func BenchmarkCharacterizeColdWarm(b *testing.B) {
	p := explorer.Baseline()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := explorer.New().CharacterizeContext(context.Background(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := explorer.New()
		if _, err := e.CharacterizeContext(context.Background(), p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.CharacterizeContext(context.Background(), p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionNodeScaling measures the multi-node verdict study.
func BenchmarkExtensionNodeScaling(b *testing.B) {
	s := sharedStudy(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.NodeScaling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArtifactBuildColdWarm measures every registry artifact twice:
// cold (a fresh study, so the characterization caches are empty and the
// build pays the full array-optimization cost) and warm (repeat builds on
// a shared study, the steady state the HTTP response path and repeated CLI
// renders see). The cold/warm gap is the value of the study-level caches;
// EXPERIMENTS.md records the measured ratios. "Cold" means cold study and
// explorer caches: after the first iteration workload's window memo
// behind SystemImpact is warm.
func BenchmarkArtifactBuildColdWarm(b *testing.B) {
	for _, name := range Artifacts().Names() {
		b.Run(name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewStudy()
				if _, err := s.ArtifactTable(name); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/warm", func(b *testing.B) {
			s := sharedStudy(b)
			if _, err := s.ArtifactTable(name); err != nil {
				b.Fatal(err) // prime outside the timed loop
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ArtifactTable(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
