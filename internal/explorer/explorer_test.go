package explorer

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/cryo"
	"coldtall/internal/dram"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// shared explorer: characterizations are cached, so tests reuse one.
var (
	sharedOnce sync.Once
	sharedExp  *Explorer
)

func exp(t *testing.T) *Explorer {
	t.Helper()
	sharedOnce.Do(func() { sharedExp = New() })
	return sharedExp
}

func traffic(t *testing.T, name string) workload.Traffic {
	t.Helper()
	tr, err := workload.StaticTrafficFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func eval(t *testing.T, p DesignPoint, bench string) Evaluation {
	t.Helper()
	ev, err := exp(t).EvaluateContext(context.Background(), p, traffic(t, bench))
	if err != nil {
		t.Fatalf("Evaluate(%s, %s): %v", p.Label, bench, err)
	}
	return ev
}

func stacked(t *testing.T, tech cell.Technology, corner cell.Corner, dies int) DesignPoint {
	t.Helper()
	p, err := Stacked(tech, corner, dies)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// --- Construction and validation.

func TestDesignPointValidate(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	bad := Baseline()
	bad.Label = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty label should fail")
	}
	bad = Baseline()
	bad.Temperature = 2
	if err := bad.Validate(); err == nil {
		t.Error("2 K should fail (below the deep-cryo floor)")
	}
	bad = Baseline()
	bad.FrequencyHz = 1e6
	if err := bad.Validate(); err == nil {
		t.Error("1 MHz clock should fail (below MinFrequencyHz)")
	}
	bad = Baseline()
	bad.Dies = 3
	if err := bad.Validate(); err == nil {
		t.Error("3 dies should fail")
	}
}

func TestStandardPointSets(t *testing.T) {
	sweep := CryoSweep(cryo.EffectiveTemperatures())
	if len(sweep) != 16 {
		t.Errorf("cryo sweep has %d points, want 16 (8 temps x 2 cells)", len(sweep))
	}
	envm, err := ENVMSweep()
	if err != nil {
		t.Fatal(err)
	}
	// 4 die counts x (SRAM + 3 technologies x 2 corners) = 28.
	if len(envm) != 28 {
		t.Errorf("eNVM sweep has %d points, want 28", len(envm))
	}
	for _, p := range append(sweep, envm...) {
		if err := p.Validate(); err != nil {
			t.Errorf("point %s invalid: %v", p.Label, err)
		}
	}
	cands, err := TableIICandidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3+15 {
		t.Errorf("Table II candidates = %d, want 18", len(cands))
	}
}

func TestWithCoolingValidates(t *testing.T) {
	if _, err := WithCooling(cryo.Cooling{Class: cryo.Cooler1kW, ThresholdK: 0}); err == nil {
		t.Error("invalid cooling should be rejected")
	}
	e, err := WithCooling(cryo.Cooling{Class: cryo.Cooler10W, ThresholdK: 200})
	if err != nil || e.Cooling.Class != cryo.Cooler10W {
		t.Errorf("WithCooling failed: %v", err)
	}
}

// --- Fig. 1: SRAM power vs temperature for namd.

func TestFig1NamdTemperatureSweep(t *testing.T) {
	base := eval(t, Baseline(), ReferenceBenchmark)
	cold := eval(t, SRAMAt(tech.TempCryo77), ReferenceBenchmark)

	// ">50x reduction by operating at 77 K" (device power, no cooling).
	if r := base.DevicePower / cold.DevicePower; r < 50 || r > 200 {
		t.Errorf("77K namd device-power reduction %.1fx, want 50-200x", r)
	}
	// "Even including a conservative estimate of cooling power overhead,
	// there is more than a 50% reduction in total LLC power."
	if r := base.TotalPower / cold.TotalPower; r < 2 {
		t.Errorf("77K namd total-power reduction incl cooling %.1fx, want > 2x", r)
	}
	// Power falls monotonically with temperature.
	prev := math.Inf(1)
	for i := len(cryo.EffectiveTemperatures()) - 1; i >= 0; i-- {
		temp := cryo.EffectiveTemperatures()[i]
		ev := eval(t, SRAMAt(temp), ReferenceBenchmark)
		if ev.DevicePower >= prev {
			t.Fatalf("device power not monotonic at %g K", temp)
		}
		prev = ev.DevicePower
	}
}

// --- Fig. 4: namd vs leela, cryo vs 350 K, both cell technologies.

func TestFig4NamdEDRAMCoolingThwarted(t *testing.T) {
	// "The potential benefits of cryogenic operation of an eDRAM cache
	// for [namd] are thwarted by the cooling power overhead compared to
	// 350K eDRAM operation due to the huge LLC accesses of the workload."
	warm := eval(t, EDRAMAt(tech.TempHot350), "namd")
	cold := eval(t, EDRAMAt(tech.TempCryo77), "namd")
	if cold.TotalPower <= warm.TotalPower {
		t.Errorf("cooled 77K eDRAM (%.4f W) should lose to 350K eDRAM (%.4f W) on namd",
			cold.TotalPower, warm.TotalPower)
	}
	// But SRAM still benefits (~3x in the paper's Fig. 4).
	warmS := eval(t, SRAMAt(tech.TempHot350), "namd")
	coldS := eval(t, SRAMAt(tech.TempCryo77), "namd")
	if r := warmS.TotalPower / coldS.TotalPower; r < 2 || r > 15 {
		t.Errorf("cooled 77K SRAM advantage on namd %.1fx, want 2-15x (paper ~3x)", r)
	}
}

func TestFig4LeelaCryoWinsBothTechnologies(t *testing.T) {
	// "For distinct benchmark memory access patterns, like leela,
	// cryogenic total operating power is advantageous for both LLC
	// technologies."
	for _, mk := range []func(float64) DesignPoint{SRAMAt, EDRAMAt} {
		warm := eval(t, mk(tech.TempHot350), "leela")
		cold := eval(t, mk(tech.TempCryo77), "leela")
		if cold.TotalPower >= warm.TotalPower {
			t.Errorf("%s: cooled cryo should win on leela", mk(77).Label)
		}
	}
}

// --- Fig. 5: full-suite cryo sweep.

func TestFig5EDRAMLowestDevicePowerEverywhere(t *testing.T) {
	// "identifying 77K 3T-eDRAM as the lowest power option for all
	// benchmarks" (device power, pre-cooling).
	for _, tr := range workload.StaticTraffic() {
		e77, err := exp(t).EvaluateContext(context.Background(), EDRAMAt(tech.TempCryo77), tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, rival := range []DesignPoint{SRAMAt(tech.TempCryo77), SRAMAt(tech.TempHot350), EDRAMAt(tech.TempHot350)} {
			rv, err := exp(t).EvaluateContext(context.Background(), rival, tr)
			if err != nil {
				t.Fatal(err)
			}
			if e77.DevicePower >= rv.DevicePower {
				t.Errorf("%s: 77K eDRAM device power should beat %s", tr.Benchmark, rival.Label)
			}
		}
	}
}

func TestFig5LowTrafficHugeCooledWin(t *testing.T) {
	// "For read traffic less than 1e4 [the povray band], 77K 3T-eDRAM is
	// preferred with more than a 2,500x reduction in power compared to
	// the baseline even taking into account cooling overhead."
	base := eval(t, Baseline(), "povray")
	cold := eval(t, EDRAMAt(tech.TempCryo77), "povray")
	if r := base.TotalPower / cold.TotalPower; r < 2500 {
		t.Errorf("cooled 77K eDRAM win on povray = %.0fx, want > 2500x", r)
	}
}

func TestFig5BandEdgeCooledWin(t *testing.T) {
	// At the top of the mid band the cooled advantage compresses to the
	// tens (paper: "20-30x power reduction including cooling").
	base := eval(t, Baseline(), "xalancbmk")
	cold := eval(t, EDRAMAt(tech.TempCryo77), "xalancbmk")
	if r := base.TotalPower / cold.TotalPower; r < 10 || r > 60 {
		t.Errorf("cooled 77K eDRAM win at band edge = %.1fx, want 10-60x (paper 20-30x)", r)
	}
}

func TestFig5HighTrafficCooledCryoLoses(t *testing.T) {
	// "For high-bandwidth benchmarks, at read access rates about 1e8/s,
	// the relative power of cryogenic operation and cooling well exceeds
	// the 350K operating baseline."
	for _, bench := range []string{"lbm", "mcf"} {
		base := eval(t, Baseline(), bench)
		cold := eval(t, EDRAMAt(tech.TempCryo77), bench)
		if cold.TotalPower <= base.TotalPower {
			t.Errorf("%s: cooled 77K eDRAM (%.3f W) should exceed 350K SRAM (%.3f W)",
				bench, cold.TotalPower, base.TotalPower)
		}
	}
	// While below the crossover it still wins.
	base := eval(t, Baseline(), "namd")
	cold := eval(t, EDRAMAt(tech.TempCryo77), "namd")
	if cold.TotalPower >= base.TotalPower {
		t.Error("namd sits below the cooled-cryo crossover and should still win")
	}
}

func TestFig5CryoLatencyAdvantage(t *testing.T) {
	// "77K 3T-eDRAM and 77K SRAM exhibit 2-4x lower aggregate LLC
	// latency than at 350K"; eDRAM always edges SRAM at 77 K.
	for _, tr := range workload.StaticTraffic() {
		s77, _ := exp(t).EvaluateContext(context.Background(), SRAMAt(tech.TempCryo77), tr)
		s350, _ := exp(t).EvaluateContext(context.Background(), SRAMAt(tech.TempHot350), tr)
		e77, _ := exp(t).EvaluateContext(context.Background(), EDRAMAt(tech.TempCryo77), tr)
		e350, _ := exp(t).EvaluateContext(context.Background(), EDRAMAt(tech.TempHot350), tr)
		if r := s350.AggregateLatency / s77.AggregateLatency; r < 2 || r > 6 {
			t.Errorf("%s: SRAM 77K latency gain %.1fx, want 2-6x", tr.Benchmark, r)
		}
		if r := e350.AggregateLatency / e77.AggregateLatency; r < 2 || r > 6 {
			t.Errorf("%s: eDRAM 77K latency gain %.1fx, want 2-6x", tr.Benchmark, r)
		}
		if e77.AggregateLatency >= s77.AggregateLatency {
			t.Errorf("%s: 77K eDRAM should edge 77K SRAM on latency", tr.Benchmark)
		}
	}
}

// --- Fig. 7: eNVM application-level comparisons.

func TestFig7ENVMPowerAdvantageAtModestTraffic(t *testing.T) {
	// eNVMs sit 2-10x (optimistic: somewhat more) below the SRAM
	// baseline for sub-1e7 read traffic.
	for _, bench := range []string{"leela", "x264", "blender"} {
		base := eval(t, Baseline(), bench)
		for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
			pess := eval(t, stacked(t, tc, cell.Pessimistic, 1), bench)
			if r := base.TotalPower / pess.TotalPower; r < 2 || r > 15 {
				t.Errorf("%s pessimistic %v advantage %.1fx, want 2-15x", bench, tc, r)
			}
			opt := eval(t, stacked(t, tc, cell.Optimistic, 1), bench)
			if opt.TotalPower >= pess.TotalPower {
				t.Errorf("%s: optimistic %v should beat pessimistic", bench, tc)
			}
		}
	}
}

func TestFig7HighTraffic8DiePCMWins(t *testing.T) {
	// "For read accesses greater than 1e7, 8-die PCM emerges as the
	// lowest power technology."
	p8 := stacked(t, cell.PCM, cell.Optimistic, 8)
	for _, bench := range []string{"mcf", "lbm", "bwaves"} {
		win := eval(t, p8, bench)
		rivals := []DesignPoint{Baseline()}
		for _, dies := range []int{1, 2, 4} {
			rivals = append(rivals, stacked(t, cell.PCM, cell.Optimistic, dies))
		}
		for _, tc := range []cell.Technology{cell.STTRAM, cell.RRAM} {
			rivals = append(rivals, stacked(t, tc, cell.Optimistic, 8))
		}
		rivals = append(rivals, stacked(t, cell.SRAM, cell.Optimistic, 8))
		for _, rv := range rivals {
			ev := eval(t, rv, bench)
			if win.TotalPower >= ev.TotalPower {
				t.Errorf("%s: 8-die PCM (%.4f W) should beat %s (%.4f W)",
					bench, win.TotalPower, rv.Label, ev.TotalPower)
			}
		}
	}
}

func TestFig7LowTrafficLowerStackingWins(t *testing.T) {
	// "In lower-traffic scenarios, lower stacking is better for power
	// efficiency."
	one := eval(t, stacked(t, cell.PCM, cell.Optimistic, 1), "leela")
	eight := eval(t, stacked(t, cell.PCM, cell.Optimistic, 8), "leela")
	if one.TotalPower >= eight.TotalPower {
		t.Error("1-die PCM should beat 8-die PCM at leela's traffic")
	}
}

func TestFig7STT8LowestLatencyExceptMcf(t *testing.T) {
	// "[The lowest aggregate latency] is 8-die STT-RAM for all
	// benchmarks except mcf (the lowest write traffic)", where 8-die PCM
	// (the read-latency winner) takes over.
	t8 := stacked(t, cell.STTRAM, cell.Optimistic, 8)
	p8 := stacked(t, cell.PCM, cell.Optimistic, 8)
	envm, err := ENVMSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range workload.StaticTraffic() {
		evT8, _ := exp(t).EvaluateContext(context.Background(), t8, tr)
		evP8, _ := exp(t).EvaluateContext(context.Background(), p8, tr)
		best := evT8
		if tr.Benchmark == "mcf" {
			best = evP8
		}
		for _, p := range envm {
			ev, err := exp(t).EvaluateContext(context.Background(), p, tr)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Point.Key() == best.Point.Key() {
				continue
			}
			if best.AggregateLatency > ev.AggregateLatency*(1+1e-12) {
				t.Errorf("%s: expected %s to lead, but %s has lower latency",
					tr.Benchmark, best.Point.Label, p.Label)
			}
		}
	}
}

func TestFig7PessimisticSlowdownAtHighWriteTraffic(t *testing.T) {
	// "PCM and STT-RAM with pessimistic underlying cell properties are
	// consistently higher latency than SRAM [at high write traffic] and
	// could thus introduce a negative performance impact."
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM} {
		p := stacked(t, tc, cell.Pessimistic, 8)
		ev := eval(t, p, "lbm")
		if !ev.Slowdown {
			t.Errorf("pessimistic %v on lbm should flag a slowdown", tc)
		}
		base := eval(t, Baseline(), "lbm")
		if ev.AggregateLatency <= base.AggregateLatency {
			t.Errorf("pessimistic %v latency should exceed SRAM on lbm", tc)
		}
	}
	// Optimistic STT at modest traffic does not slow down.
	if ev := eval(t, stacked(t, cell.STTRAM, cell.Optimistic, 8), "leela"); ev.Slowdown {
		t.Error("optimistic 8-die STT should not slow leela down")
	}
}

// --- Table II.

func TestTableIIPowerColumn(t *testing.T) {
	e := exp(t)
	low, err := e.OptimalChoice(context.Background(), workload.BandLow, ObjPower)
	if err != nil {
		t.Fatal(err)
	}
	if low.Winner.Point.Cell.Tech != cell.EDRAM3T || low.Winner.Point.Temperature != 77 {
		t.Errorf("low-band power winner = %s, want 77K 3T-eDRAM", low.Winner.Point.Label)
	}
	if low.EnduranceConcern {
		t.Error("volatile low-band winner should raise no endurance concern")
	}

	mid, err := e.OptimalChoice(context.Background(), workload.BandMid, ObjPower)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Winner.Point.Cell.Tech != cell.PCM || mid.Winner.Point.Dies != 4 {
		t.Errorf("mid-band power winner = %s, want 4-die PCM", mid.Winner.Point.Label)
	}
	if !mid.EnduranceConcern || mid.Alternative == nil {
		t.Fatal("mid-band PCM winner should carry an endurance alternative")
	}
	if mid.Alternative.Point.Cell.Tech != cell.EDRAM3T || mid.Alternative.Point.Temperature != 77 {
		t.Errorf("mid-band alt = %s, want 77K 3T-eDRAM", mid.Alternative.Point.Label)
	}

	high, err := e.OptimalChoice(context.Background(), workload.BandHigh, ObjPower)
	if err != nil {
		t.Fatal(err)
	}
	if high.Winner.Point.Cell.Tech != cell.PCM || high.Winner.Point.Dies != 8 {
		t.Errorf("high-band power winner = %s, want 8-die PCM", high.Winner.Point.Label)
	}
	if high.Alternative == nil || high.Alternative.Point.Cell.Tech != cell.SRAM || high.Alternative.Point.Dies != 8 {
		t.Errorf("high-band alt should be 8-die SRAM, got %v", high.Alternative)
	}
}

func TestTableIIPerformanceColumn3D(t *testing.T) {
	// The paper's performance column (Destiny-family winners): 8-die STT
	// for the write-bearing bands, 8-die PCM for the read-dominated top.
	e := exp(t)
	for _, b := range []workload.Band{workload.BandLow, workload.BandMid} {
		c, err := e.Optimal3DChoice(context.Background(), b, ObjPerformance)
		if err != nil {
			t.Fatal(err)
		}
		if c.Winner.Point.Cell.Tech != cell.STTRAM || c.Winner.Point.Dies != 8 {
			t.Errorf("band %v 3D performance winner = %s, want 8-die STT", b, c.Winner.Point.Label)
		}
	}
	c, err := e.Optimal3DChoice(context.Background(), workload.BandHigh, ObjPerformance)
	if err != nil {
		t.Fatal(err)
	}
	if c.Winner.Point.Cell.Tech != cell.PCM || c.Winner.Point.Dies != 8 {
		t.Errorf("high-band 3D performance winner = %s, want 8-die PCM (mcf is read-dominated)", c.Winner.Point.Label)
	}
}

func TestTableIIUnifiedPerformanceIsCryo(t *testing.T) {
	// Documented deviation: in the unified model the cryogenic latency
	// advantage wins low/mid-band performance outright (see
	// EXPERIMENTS.md).
	c, err := exp(t).OptimalChoice(context.Background(), workload.BandMid, ObjPerformance)
	if err != nil {
		t.Fatal(err)
	}
	if c.Winner.Point.Temperature != 77 {
		t.Errorf("unified mid-band performance winner = %s, expected a 77K point", c.Winner.Point.Label)
	}
}

func TestTableIIAreaColumn(t *testing.T) {
	e := exp(t)
	for _, b := range workload.Bands() {
		c, err := e.OptimalChoice(context.Background(), b, ObjArea)
		if err != nil {
			t.Fatal(err)
		}
		if c.Winner.Point.Cell.Tech != cell.PCM || c.Winner.Point.Dies != 8 {
			t.Errorf("band %v area winner = %s, want 8-die PCM", b, c.Winner.Point.Label)
		}
		switch b {
		case workload.BandLow:
			if c.EnduranceConcern {
				t.Error("low band write traffic should not wear PCM out")
			}
		default:
			if c.Alternative == nil || c.Alternative.Point.Cell.Tech != cell.STTRAM {
				t.Errorf("band %v area alt should be 3D STT, got %v", b, c.Alternative)
			}
		}
	}
}

func TestTableIIFullGrid(t *testing.T) {
	e := exp(t)
	cells := 0
	for _, b := range workload.Bands() {
		for _, o := range Objectives() {
			c, err := e.OptimalChoice(context.Background(), b, o)
			if err != nil {
				t.Fatal(err)
			}
			cells++
			if c.Winner.Point.Label == "" {
				t.Error("empty winner")
			}
			if c.Alternative != nil && c.Alternative.Point.Cell.Tech == c.Winner.Point.Cell.Tech {
				t.Error("alternative must differ in technology")
			}
		}
	}
	if cells != 9 {
		t.Fatalf("Table II has %d cells, want 9 (3 bands x 3 objectives)", cells)
	}
}

// --- Mechanics.

func TestEvaluationPowerAccounting(t *testing.T) {
	ev := eval(t, SRAMAt(tech.TempCryo77), "leela")
	if ev.CoolingPower <= 0 {
		t.Error("77K point must pay cooling power")
	}
	if math.Abs(ev.TotalPower-(ev.DevicePower+ev.CoolingPower)) > 1e-15 {
		t.Error("total power must equal device + cooling")
	}
	warm := eval(t, Baseline(), "leela")
	if warm.CoolingPower != 0 {
		t.Error("350K point must not pay cooling")
	}
	if warm.DevicePower <= warm.Array.LeakagePower {
		t.Error("device power must include dynamic energy")
	}
}

func TestLifetimeComputation(t *testing.T) {
	// SRAM never wears.
	if ev := eval(t, Baseline(), "lbm"); !math.IsInf(ev.LifetimeYears, 1) {
		t.Error("SRAM lifetime should be infinite")
	}
	// PCM wears faster under heavier write traffic.
	p1 := eval(t, stacked(t, cell.PCM, cell.Optimistic, 1), "lbm")
	p2 := eval(t, stacked(t, cell.PCM, cell.Optimistic, 1), "povray")
	if !(p1.LifetimeYears < p2.LifetimeYears) {
		t.Error("heavier write traffic should shorten lifetime")
	}
	if p1.LifetimeYears <= 0 || math.IsInf(p1.LifetimeYears, 1) {
		t.Errorf("PCM lifetime on lbm = %v, want finite positive", p1.LifetimeYears)
	}
}

func TestNormalizeAgainstBaseline(t *testing.T) {
	base, err := exp(t).BaselineEvaluation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	self := Normalize(base, base)
	for _, v := range []float64{self.RelPower, self.RelDevicePower, self.RelLatency, self.RelArea} {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("self-normalization = %v, want 1", v)
		}
	}
	cold := eval(t, SRAMAt(tech.TempCryo77), ReferenceBenchmark)
	rel := Normalize(cold, base)
	if rel.RelDevicePower >= 0.02 {
		t.Errorf("relative 77K device power %.4f, want << 1", rel.RelDevicePower)
	}
	// Iso-capacity SRAM: the EDP search may pick a slightly different
	// organization at 77 K, but the footprint stays essentially equal.
	if rel.RelArea < 0.95 || rel.RelArea > 1.05 {
		t.Errorf("iso-capacity SRAM area should normalize to ~1, got %g", rel.RelArea)
	}
}

func TestEvaluateAllShape(t *testing.T) {
	pts := []DesignPoint{Baseline(), SRAMAt(tech.TempCryo77)}
	trs := workload.StaticTraffic()[:3]
	grid, err := exp(t).EvaluateAllContext(context.Background(), pts, trs)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 3 {
		t.Fatalf("grid shape %dx%d, want 2x3", len(grid), len(grid[0]))
	}
	if grid[1][2].Point.Label != pts[1].Label || grid[1][2].Traffic.Benchmark != trs[2].Benchmark {
		t.Error("grid indexing broken")
	}
}

func TestCharacterizeCaches(t *testing.T) {
	e := New()
	a, err := e.CharacterizeContext(context.Background(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CharacterizeContext(context.Background(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache should return identical results")
	}
}

// TestKeyFractionalTemperature pins the exact temperature and clock
// spelling in Key: 349.9 K characterized after 350 K gets its own cache
// entry and result, while every grid temperature keeps its historical
// integer spelling and every freqsweep clock its historical spelling (so
// persisted keys of the paper grid carry over).
func TestKeyFractionalTemperature(t *testing.T) {
	hot, err := ParsePoint(PointSpec{Cell: "SRAM", TemperatureK: 350})
	if err != nil {
		t.Fatal(err)
	}
	near, err := ParsePoint(PointSpec{Cell: "SRAM", TemperatureK: 349.9})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := near.Key(), "sram-6t|SRAM|349.9|1|tsv|0|"; got != want {
		t.Errorf("349.9 K key = %q, want %q", got, want)
	}
	e := New()
	hotRes, err := e.CharacterizeContext(context.Background(), hot)
	if err != nil {
		t.Fatal(err)
	}
	nearRes, err := e.CharacterizeContext(context.Background(), near)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New().CharacterizeContext(context.Background(), near)
	if err != nil {
		t.Fatal(err)
	}
	if nearRes != fresh {
		t.Error("349.9 K after 350 K was served a different characterization than a cold explorer computes")
	}
	if nearRes == hotRes {
		t.Error("349.9 K was served the 350 K characterization")
	}

	temps := append(cryo.EffectiveTemperatures(), cryo.DeepTemperatures()...)
	for _, temp := range temps {
		p := Baseline()
		p.Temperature = temp
		old := fmt.Sprintf("%s|%s|%.0f|%d|%v|%d|%s", p.Cell.Name, p.Cell.Tech, temp, p.Dies, p.Style, p.CapacityBytes, p.Node.Name)
		if p.Key() != old {
			t.Errorf("%g K key = %q, want the historical %q", temp, p.Key(), old)
		}
	}

	// The clock segment follows the same rule: near-equal clocks that a
	// four-digit spelling merged get distinct keys, and every freqsweep
	// grid clock keeps its historical spelling.
	a, b := atClock(Baseline(), 5.0001e9), atClock(Baseline(), 5.00012e9)
	if a.Key() == b.Key() {
		t.Errorf("5.0001 GHz and 5.00012 GHz share key %q", a.Key())
	}
	if got, want := a.Key(), Baseline().Key()+"|f5.0001e+09"; got != want {
		t.Errorf("5.0001 GHz key = %q, want %q", got, want)
	}
	// coldtall.SweepFrequencies minus the default 5 GHz (the root package
	// cannot be imported here).
	for _, f := range []float64{1e9, 2.5e9, 7.5e9, 1e10} {
		p := atClock(Baseline(), f)
		if old := Baseline().Key() + fmt.Sprintf("|f%.4g", f); p.Key() != old {
			t.Errorf("%g Hz key = %q, want the historical %q", f, p.Key(), old)
		}
	}
}

func TestEvaluateRejectsBadTraffic(t *testing.T) {
	bad := workload.Traffic{Benchmark: "x", ReadsPerSec: -1}
	if _, err := exp(t).EvaluateContext(context.Background(), Baseline(), bad); err == nil {
		t.Error("negative traffic should fail")
	}
}

func TestStackedUnknownTechnology(t *testing.T) {
	if _, err := Stacked(cell.Technology(99), cell.Optimistic, 2); err == nil {
		t.Error("unknown technology should fail")
	}
}

func TestCoolingSensitivityMonotonic(t *testing.T) {
	// Section III-C: larger cooling overheads (smaller coolers) only
	// raise the cryogenic total power.
	tr := traffic(t, "leela")
	prev := 0.0
	for _, cls := range cryo.Classes() {
		e, err := WithCooling(cryo.Cooling{Class: cls, ThresholdK: 200})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := e.EvaluateContext(context.Background(), EDRAMAt(tech.TempCryo77), tr)
		if err != nil {
			t.Fatal(err)
		}
		if ev.TotalPower <= prev {
			t.Fatalf("total power should grow with cooler overhead (%v)", cls)
		}
		prev = ev.TotalPower
	}
}

func TestEvaluationReliability(t *testing.T) {
	// The paper's endurance concern made quantitative: PCM's wear
	// lifetime at mid-band write traffic is single-digit years; STT's is
	// effectively unlimited; the cryogenic eDRAM has a retention tail
	// but no wear.
	pcm := eval(t, stacked(t, cell.PCM, cell.Optimistic, 4), "xalancbmk")
	repPCM, err := pcm.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if repPCM.WearLifetimeYears > 100 {
		t.Errorf("PCM wear lifetime %.1f years, want limited", repPCM.WearLifetimeYears)
	}
	stt := eval(t, stacked(t, cell.STTRAM, cell.Optimistic, 4), "xalancbmk")
	repSTT, err := stt.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if repSTT.WearLifetimeYears < 1e6 {
		t.Errorf("STT wear lifetime %.3g years, want unlimited-scale", repSTT.WearLifetimeYears)
	}
	if repSTT.SoftFIT <= repPCM.SoftFIT {
		t.Error("STT stochastic switching should dominate soft FIT")
	}
	edram := eval(t, EDRAMAt(tech.TempHot350), "xalancbmk")
	repE, err := edram.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if repE.RetentionWeakBitsPerRefresh <= 0 {
		t.Error("350K eDRAM should report a retention weak-bit tail")
	}
	// Cooling to 77 K shrinks the tail by orders of magnitude.
	edramCold := eval(t, EDRAMAt(tech.TempCryo77), "xalancbmk")
	repEC, err := edramCold.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if repEC.RetentionWeakBitsPerRefresh >= repE.RetentionWeakBitsPerRefresh {
		t.Error("cryogenic retention tail should shrink")
	}
}

// atCapacity and atClock return a copy of p with its LLC capacity or core
// clock overridden, as ParsePoint builds such points from a spec.
func atCapacity(p DesignPoint, bytes int64) DesignPoint {
	p.CapacityBytes = bytes
	return p
}

func atClock(p DesignPoint, hz float64) DesignPoint {
	p.FrequencyHz = hz
	return p
}

func TestCapacityOverride(t *testing.T) {
	small := atCapacity(Baseline(), 4<<20)
	big := atCapacity(Baseline(), 64<<20)
	rs, err := exp(t).CharacterizeContext(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := exp(t).CharacterizeContext(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.FootprintM2 <= rs.FootprintM2 || rb.LeakagePower <= rs.LeakagePower {
		t.Error("larger LLC should be bigger and leakier")
	}
	if rb.ReadLatency <= rs.ReadLatency {
		t.Error("larger LLC should be slower")
	}
	if small.Key() == big.Key() {
		t.Error("capacity must distinguish points")
	}
	// The default (0) still means 16 MiB.
	def, err := exp(t).CharacterizeContext(context.Background(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := exp(t).CharacterizeContext(context.Background(), atCapacity(Baseline(), 16<<20))
	if err != nil {
		t.Fatal(err)
	}
	if def.FootprintM2 != mid.FootprintM2 {
		t.Error("explicit 16 MiB should equal the default")
	}
}

func TestContentionModel(t *testing.T) {
	// Low-traffic benchmarks leave the array essentially idle; the
	// pessimistic PCM's 250 ns write cycle saturates under lbm's stream.
	idle := eval(t, Baseline(), "povray")
	if idle.Utilization > 0.01 || idle.ContentionFactor > 1.01 {
		t.Errorf("povray should leave SRAM idle: rho=%.4f factor=%.3f",
			idle.Utilization, idle.ContentionFactor)
	}
	busy := eval(t, stacked(t, cell.PCM, cell.Pessimistic, 1), "lbm")
	if busy.Utilization <= idle.Utilization {
		t.Error("lbm should load the array more than povray")
	}
	if busy.ContentionFactor <= 1 {
		t.Error("contention factor must exceed 1 under load")
	}
	// The factor grows monotonically with utilization.
	mid := eval(t, Baseline(), "namd")
	high := eval(t, Baseline(), "lbm")
	if !(mid.ContentionFactor <= high.ContentionFactor) {
		t.Error("contention should grow with traffic")
	}
	// Saturated arrays cap at the reporting limit and flag a slowdown.
	if busy.Utilization >= 1 {
		if busy.ContentionFactor != 100 {
			t.Errorf("saturated factor = %g, want capped 100", busy.ContentionFactor)
		}
		if !busy.Slowdown {
			t.Error("saturation must flag a slowdown")
		}
	}
}

func TestSystemImpact(t *testing.T) {
	mem, err := dram.New(dram.DDR4(), 300)
	if err != nil {
		t.Fatal(err)
	}
	prof := func(name string) workload.Profile {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The baseline is its own reference.
	base, err := exp(t).SystemImpact(context.Background(), Baseline(), prof("namd"), mem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.RelIPC-1) > 1e-9 {
		t.Errorf("baseline RelIPC = %g, want 1", base.RelIPC)
	}
	if base.AMATSeconds <= 0 || base.CPI <= 0 {
		t.Error("non-positive AMAT/CPI")
	}
	if base.L1MissRate <= 0 || base.L1MissRate >= 1 {
		t.Errorf("L1 miss rate %g out of (0,1)", base.L1MissRate)
	}

	// A faster LLC (77 K eDRAM) speeds the core up on a memory-bound
	// benchmark; a slow pessimistic PCM slows it down.
	fast, err := exp(t).SystemImpact(context.Background(), EDRAMAt(tech.TempCryo77), prof("mcf"), mem)
	if err != nil {
		t.Fatal(err)
	}
	if fast.RelIPC <= 1 {
		t.Errorf("77K eDRAM RelIPC on mcf = %.4f, want > 1", fast.RelIPC)
	}
	slow, err := exp(t).SystemImpact(context.Background(), stacked(t, cell.PCM, cell.Pessimistic, 1), prof("mcf"), mem)
	if err != nil {
		t.Fatal(err)
	}
	if slow.RelIPC >= 1 {
		t.Errorf("pessimistic PCM RelIPC on mcf = %.4f, want < 1", slow.RelIPC)
	}

	// A compute-bound benchmark barely notices the LLC choice.
	quiet, err := exp(t).SystemImpact(context.Background(), stacked(t, cell.PCM, cell.Pessimistic, 1), prof("povray"), mem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(quiet.RelIPC-1) > 0.05 {
		t.Errorf("povray RelIPC = %.4f, want ~1 (LLC-insensitive)", quiet.RelIPC)
	}
}

func TestSystemImpactColdDRAMCompounds(t *testing.T) {
	// Cooling the DRAM too (the full CryoRAM system) shortens the miss
	// penalty and lifts IPC further for a memory-bound benchmark.
	warmMem, err := dram.New(dram.DDR4(), 300)
	if err != nil {
		t.Fatal(err)
	}
	coldMem, err := dram.New(dram.DDR4(), 77)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := exp(t).SystemImpact(context.Background(), EDRAMAt(tech.TempCryo77), p, warmMem)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := exp(t).SystemImpact(context.Background(), EDRAMAt(tech.TempCryo77), p, coldMem)
	if err != nil {
		t.Fatal(err)
	}
	if cold.AMATSeconds >= warm.AMATSeconds {
		t.Error("cold DRAM should shorten AMAT")
	}
}

func TestLifetimeScalesWithCapacity(t *testing.T) {
	// A bigger LLC spreads the same write stream over more blocks, so
	// wear-leveled lifetime grows proportionally.
	p := stacked(t, cell.PCM, cell.Optimistic, 1)
	small := atCapacity(p, 4<<20)
	big := atCapacity(p, 32<<20)
	tr := traffic(t, "omnetpp")
	evS, err := exp(t).EvaluateContext(context.Background(), small, tr)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := exp(t).EvaluateContext(context.Background(), big, tr)
	if err != nil {
		t.Fatal(err)
	}
	ratio := evB.LifetimeYears / evS.LifetimeYears
	if ratio < 7.9 || ratio > 8.1 {
		t.Errorf("8x capacity should give 8x lifetime, got %.2fx", ratio)
	}
}
