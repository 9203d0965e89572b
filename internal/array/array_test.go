package array

import (
	"context"
	"math"
	"sync"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
)

// optimizeCached memoizes Optimize results across the test package: the
// organization search is deterministic, and many tests share design points.
var (
	optCacheMu sync.Mutex
	optCache   = map[string]Result{}
)

func llc(t *testing.T, c cell.Cell, temp float64, dies int) Result {
	t.Helper()
	key := c.Name + "|" + c.Tech.String() + "|" +
		string(rune(dies)) + "|" + string(rune(int(temp)))
	optCacheMu.Lock()
	r, ok := optCache[key]
	optCacheMu.Unlock()
	if ok {
		return r
	}
	cfg := DefaultLLC(c, temp, stack.Config{Dies: dies, Style: stack.TSVStack})
	r, err := optimize(cfg)
	if err != nil {
		t.Fatalf("optimize(%s, %gK, %d dies): %v", c.Name, temp, dies, err)
	}
	optCacheMu.Lock()
	optCache[key] = r
	optCacheMu.Unlock()
	return r
}

func tentpole(t *testing.T, tc cell.Technology, corner cell.Corner) cell.Cell {
	t.Helper()
	c, err := cell.Tentpole(tc, corner)
	if err != nil {
		t.Fatalf("Tentpole(%v, %v): %v", tc, corner, err)
	}
	return c
}

// --- Configuration validation.

func TestConfigValidate(t *testing.T) {
	good := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	if err := good.Validate(); err != nil {
		t.Fatalf("default LLC invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.BlockBytes = 48 },
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.CapacityBytes = 32; c.BlockBytes = 64 },
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Ports = 9 },
		func(c *Config) { c.Associativity = 0 },
		func(c *Config) { c.Temperature = 2 },
		func(c *Config) { c.Stack.Dies = 3 },
		func(c *Config) { c.Cell.AreaF2 = -5 },
		func(c *Config) { c.Node.Vdd = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestOrganizationConstraints(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	cfg8 := DefaultLLC(cell.NewSRAM6T(), 350, stack.Config{Dies: 8, Style: stack.TSVStack})
	bad := []struct {
		cfg  Config
		org  Organization
		want string
	}{
		{cfg, Organization{Banks: 3, Rows: 512, Cols: 1024, ColumnMux: 4}, "array: banks must be a positive power of two, got 3"},
		{cfg, Organization{Banks: 4, Rows: 8, Cols: 1024, ColumnMux: 4}, "array: mat 8x1024 too small"},
		{cfg, Organization{Banks: 4, Rows: 512, Cols: 1024, ColumnMux: 2048}, "array: column mux 2048 invalid for 1024 columns"},
		{cfg, Organization{Banks: 4, Rows: 512, Cols: 4096, ColumnMux: 1}, "array: mat fetch width 4096 exceeds block bits 576"},
		{cfg, Organization{Banks: 64, Rows: 4096, Cols: 16, ColumnMux: 16}, "array: access needs 576 mats but bank has 39"},
		// Banks must cover the dies.
		{cfg8, Organization{Banks: 4, Rows: 512, Cols: 1024, ColumnMux: 4}, "array: 4 banks cannot spread across 8 dies"},
	}
	for _, b := range bad {
		if _, err := b.cfg.derive(b.org); err == nil || err.Error() != b.want {
			t.Errorf("organization %v: error %v, want %q", b.org, err, b.want)
		}
		var d derived
		if b.cfg.feasible(b.org, &d) == feasibleOrg {
			t.Errorf("organization %v should be infeasible", b.org)
		}
	}
}

// TestFeasibleMatchesDerive pins the search paths' error-free check to
// derive over every candidate: the same verdict and the same derived
// quantities.
func TestFeasibleMatchesDerive(t *testing.T) {
	for _, cfg := range []Config{
		DefaultLLC(cell.NewSRAM6T(), 350, planar),
		DefaultLLC(cell.NewSRAM6T(), 77, stack.Config{Dies: 8, Style: stack.TSVStack}),
	} {
		for _, o := range candidates() {
			d, err := cfg.derive(o)
			var f derived
			why := cfg.feasible(o, &f)
			if (err == nil) != (why == feasibleOrg) || (err == nil && d != f) {
				t.Fatalf("organization %v: derive (%+v, %v), feasible (%+v, %d)", o, d, err, f, why)
			}
		}
	}
}

func TestCharacterizeRejectsInvalid(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	cfg.Temperature = 2
	if _, err := Characterize(cfg, Organization{Banks: 4, Rows: 512, Cols: 1024, ColumnMux: 4}); err == nil {
		t.Error("expected temperature validation error")
	}
}

// --- Basic sanity of the characterization.

func TestCharacterizePositiveOutputs(t *testing.T) {
	for _, tc := range cell.Technologies() {
		c, _ := cell.Builtin(tc)
		r := llc(t, c, 350, 1)
		if r.ReadLatency <= 0 || r.WriteLatency <= 0 || r.RandomCycle <= 0 {
			t.Errorf("%v: non-positive latency", tc)
		}
		if r.ReadEnergy <= 0 || r.WriteEnergy <= 0 {
			t.Errorf("%v: non-positive energy", tc)
		}
		if r.FootprintM2 <= 0 || r.TotalSiliconM2 < r.FootprintM2 {
			t.Errorf("%v: inconsistent areas", tc)
		}
		if r.ArrayEfficiency <= 0 || r.ArrayEfficiency > 1 {
			t.Errorf("%v: efficiency %.3f out of (0,1]", tc, r.ArrayEfficiency)
		}
		if r.BandwidthAccesses <= 0 {
			t.Errorf("%v: non-positive bandwidth", tc)
		}
	}
}

func TestBreakdownSumsToLatency(t *testing.T) {
	r := llc(t, cell.NewSRAM6T(), 350, 1)
	if diff := math.Abs(r.ReadParts.Total()-r.ReadLatency) / r.ReadLatency; diff > 1e-9 {
		t.Errorf("read breakdown does not sum: %g", diff)
	}
	if diff := math.Abs(r.WriteParts.Total()-r.WriteLatency) / r.WriteLatency; diff > 1e-9 {
		t.Errorf("write breakdown does not sum: %g", diff)
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	org := Organization{Banks: 16, Rows: 512, Cols: 1024, ColumnMux: 4}
	a, err1 := Characterize(cfg, org)
	b, err2 := Characterize(cfg, org)
	if err1 != nil || err2 != nil {
		t.Fatalf("characterize failed: %v %v", err1, err2)
	}
	if a != b {
		t.Error("Characterize is not deterministic")
	}
}

// --- Fig. 3 calibration: SRAM and 3T-eDRAM vs temperature.

func TestFig3CryoLatencyReduction(t *testing.T) {
	hot := llc(t, cell.NewSRAM6T(), 350, 1)
	cold := llc(t, cell.NewSRAM6T(), 77, 1)
	red := 1 - cold.ReadLatency/hot.ReadLatency
	// Paper: "cryogenic-operation latency about 70% lower than 350K SRAM".
	if red < 0.6 || red > 0.88 {
		t.Errorf("77K read-latency reduction = %.0f%%, want 60-88%%", red*100)
	}
	wred := 1 - cold.WriteLatency/hot.WriteLatency
	if wred < 0.6 || wred > 0.88 {
		t.Errorf("77K write-latency reduction = %.0f%%, want 60-88%%", wred*100)
	}
}

func TestFig3LeakageCollapse(t *testing.T) {
	hot := llc(t, cell.NewSRAM6T(), 350, 1)
	cold := llc(t, cell.NewSRAM6T(), 77, 1)
	r := hot.LeakagePower / cold.LeakagePower
	if r < 1e5 || r > 1e7 {
		t.Errorf("leakage(350K)/leakage(77K) = %.3e, want ~1e6", r)
	}
}

func TestFig3DynamicEnergyNearlyFlat(t *testing.T) {
	// Paper: ~10% variation in read/write energy-per-bit from 77 K to
	// 387 K.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, temp := range []float64{77, 177, 277, 350, 387} {
		r := llc(t, cell.NewSRAM6T(), temp, 1)
		lo = math.Min(lo, r.ReadEnergy)
		hi = math.Max(hi, r.ReadEnergy)
	}
	if spread := hi/lo - 1; spread > 0.15 {
		t.Errorf("read-energy spread over temperature = %.1f%%, want <= 15%%", spread*100)
	}
}

func TestFig3LatencyMonotonicInTemperature(t *testing.T) {
	prev := -1.0
	for _, temp := range []float64{77, 127, 177, 227, 277, 327, 350, 387} {
		r := llc(t, cell.NewSRAM6T(), temp, 1)
		if r.ReadLatency <= prev {
			t.Fatalf("read latency not monotonic at %g K", temp)
		}
		prev = r.ReadLatency
	}
}

func TestFig3EDRAMBeatsSRAMAt77K(t *testing.T) {
	// Paper: "77K 3T-eDRAM always outperform 77K SRAM for static power,
	// dynamic power, and access latency".
	s := llc(t, cell.NewSRAM6T(), 77, 1)
	e := llc(t, cell.NewEDRAM3T(), 77, 1)
	if e.LeakagePower >= s.LeakagePower {
		t.Error("77K eDRAM leakage should be below 77K SRAM")
	}
	if e.ReadEnergy >= s.ReadEnergy || e.WriteEnergy >= s.WriteEnergy {
		t.Error("77K eDRAM dynamic energy should be below 77K SRAM")
	}
	if e.ReadLatency >= s.ReadLatency || e.WriteLatency >= s.WriteLatency {
		t.Error("77K eDRAM latency should be below 77K SRAM")
	}
}

func TestEDRAMLeakageRatioAcrossTemps(t *testing.T) {
	for _, temp := range []float64{77, 177, 277, 350, 387} {
		s := llc(t, cell.NewSRAM6T(), temp, 1)
		e := llc(t, cell.NewEDRAM3T(), temp, 1)
		r := s.LeakagePower / e.LeakagePower
		if r < 5 || r > 200 {
			t.Errorf("%g K: SRAM/eDRAM leakage = %.1f, want 5-200 (paper: 10-100x band)", temp, r)
		}
	}
}

// --- Refresh.

func TestRefreshPowerMagnitudes(t *testing.T) {
	hot := llc(t, cell.NewEDRAM3T(), 350, 1)
	// ~150k rows x ~2 pJ per 0.8 ms retention pass: sub-milliwatt, small
	// next to the 20 mW cell leakage but three orders above the 77 K
	// residual.
	if hot.RefreshPower < 5e-5 || hot.RefreshPower > 1e-2 {
		t.Errorf("350K eDRAM refresh = %.3e W, want 0.05-10 mW", hot.RefreshPower)
	}
	cold := llc(t, cell.NewEDRAM3T(), 77, 1)
	// Paper: eliminated leakage "completely resolves refresh overhead".
	if cold.RefreshPower > hot.RefreshPower/1000 {
		t.Errorf("77K refresh %.3e W should be >1000x below 350K %.3e W",
			cold.RefreshPower, hot.RefreshPower)
	}
	if s := llc(t, cell.NewSRAM6T(), 350, 1); s.RefreshPower != 0 || s.RefreshOccupancy != 0 {
		t.Error("SRAM must not refresh")
	}
	if p := llc(t, cell.NewPCM(), 350, 1); p.RefreshPower != 0 {
		t.Error("PCM must not refresh")
	}
}

func TestRefreshOccupancyBounded(t *testing.T) {
	r := llc(t, cell.NewEDRAM3T(), 387, 1)
	if r.RefreshOccupancy < 0 || r.RefreshOccupancy > 1 {
		t.Errorf("occupancy %.3f out of [0,1]", r.RefreshOccupancy)
	}
}

// --- Fig. 6 calibration: 2D/3D eNVMs at 350 K vs 1-die SRAM.

func TestFig6AreaShape(t *testing.T) {
	s1 := llc(t, cell.NewSRAM6T(), 350, 1)
	s8 := llc(t, cell.NewSRAM6T(), 350, 8)
	p1 := llc(t, tentpole(t, cell.PCM, cell.Optimistic), 350, 1)
	p8 := llc(t, tentpole(t, cell.PCM, cell.Optimistic), 350, 8)
	t8 := llc(t, tentpole(t, cell.STTRAM, cell.Optimistic), 350, 8)
	r8 := llc(t, tentpole(t, cell.RRAM, cell.Optimistic), 350, 8)

	if red := 1 - s8.FootprintM2/s1.FootprintM2; red < 0.8 {
		t.Errorf("8-die SRAM area reduction %.0f%%, want > 80%% (paper)", red*100)
	}
	if red := 1 - p8.FootprintM2/p1.FootprintM2; red < 0.2 || red > 0.45 {
		t.Errorf("8-die PCM area reduction %.0f%%, want ~30%% (paper)", red*100)
	}
	if ratio := s1.FootprintM2 / p8.FootprintM2; ratio < 10 {
		t.Errorf("1-die SRAM / 8-die PCM footprint = %.1f, want > 10x (paper)", ratio)
	}
	// 8-die PCM is the most area-efficient option; STT and RRAM next.
	if !(p8.FootprintM2 < t8.FootprintM2 && p8.FootprintM2 < r8.FootprintM2) {
		t.Error("8-die PCM should be the most area-efficient option")
	}
	for name, e := range map[string]Result{"STT": t8, "RRAM": r8, "PCM": p8} {
		if ratio := s8.FootprintM2 / e.FootprintM2; ratio < 1.9 {
			t.Errorf("8-die %s only %.2fx denser than 8-die SRAM, want ~2x+", name, ratio)
		}
	}
}

func TestFig6AreaReductionDiminishesWithDies(t *testing.T) {
	// "As number of dies increases, the relative benefit of stacking, in
	// terms of area, decreases."
	c := cell.NewSRAM6T()
	prevRatio := 0.0
	prev := llc(t, c, 350, 1).FootprintM2
	for _, dies := range []int{2, 4, 8} {
		cur := llc(t, c, 350, dies).FootprintM2
		ratio := cur / prev // halving would be 0.5; diminishing -> grows
		if prevRatio != 0 && ratio < prevRatio {
			t.Errorf("per-doubling area ratio should grow with dies: %.3f -> %.3f", prevRatio, ratio)
		}
		prevRatio = ratio
		prev = cur
	}
}

func TestFig6ReadEnergyWinners(t *testing.T) {
	s1 := llc(t, cell.NewSRAM6T(), 350, 1)
	s8 := llc(t, cell.NewSRAM6T(), 350, 8)
	p8 := llc(t, tentpole(t, cell.PCM, cell.Optimistic), 350, 8)
	t8 := llc(t, tentpole(t, cell.STTRAM, cell.Optimistic), 350, 8)
	r8 := llc(t, tentpole(t, cell.RRAM, cell.Optimistic), 350, 8)

	// "The best read energy-per-bit is achieved by 8-die SRAM and 8-die
	// PCM."
	if !(s8.ReadEnergy < p8.ReadEnergy && p8.ReadEnergy < t8.ReadEnergy && p8.ReadEnergy < r8.ReadEnergy) {
		t.Errorf("read-energy order want SRAM8 < PCM8 < {STT8, RRAM8}; got %.0f %.0f %.0f %.0f pJ",
			s8.ReadEnergy*1e12, p8.ReadEnergy*1e12, t8.ReadEnergy*1e12, r8.ReadEnergy*1e12)
	}
	if red := 1 - s8.ReadEnergy/s1.ReadEnergy; red < 0.4 {
		t.Errorf("8-die SRAM read-energy reduction %.0f%%, want >= 40%% (paper: ~75%%)", red*100)
	}
	if red := 1 - p8.ReadEnergy/s1.ReadEnergy; red < 0.35 || red > 0.7 {
		t.Errorf("8-die PCM read-energy reduction %.0f%%, want ~55%% (paper)", red*100)
	}
}

func TestFig6WriteEnergySRAMLowestAtAnyStacking(t *testing.T) {
	for _, dies := range []int{1, 8} {
		s := llc(t, cell.NewSRAM6T(), 350, dies)
		for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
			e := llc(t, tentpole(t, tc, cell.Optimistic), 350, dies)
			if s.WriteEnergy >= e.WriteEnergy {
				t.Errorf("%d-die SRAM write energy should be below %v", dies, tc)
			}
		}
	}
}

func TestFig6ReadLatencyWinners(t *testing.T) {
	s1 := llc(t, cell.NewSRAM6T(), 350, 1)
	pOpt := tentpole(t, cell.PCM, cell.Optimistic)
	p8 := llc(t, pOpt, 350, 8)
	p4 := llc(t, pOpt, 350, 4)
	p2 := llc(t, pOpt, 350, 2)
	t8 := llc(t, tentpole(t, cell.STTRAM, cell.Optimistic), 350, 8)
	r8 := llc(t, tentpole(t, cell.RRAM, cell.Optimistic), 350, 8)

	// Paper order: 8-die PCM best, then 4-die PCM, 2-die PCM, 8-die STT,
	// 8-die RRAM.
	seq := []Result{p8, p4, p2, t8, r8}
	for i := 1; i < len(seq); i++ {
		if seq[i-1].ReadLatency >= seq[i].ReadLatency {
			t.Errorf("read-latency order violated at position %d: %.2f >= %.2f ns",
				i, seq[i-1].ReadLatency*1e9, seq[i].ReadLatency*1e9)
		}
	}
	// All substantially below the 1-die SRAM baseline (paper: >80%; the
	// rebuilt model reproduces the ordering with reductions of ~55-70%).
	for i, r := range seq {
		if red := 1 - r.ReadLatency/s1.ReadLatency; red < 0.5 {
			t.Errorf("seq[%d] read-latency reduction %.0f%%, want >= 50%%", i, red*100)
		}
	}
}

func TestFig6WriteLatencySTTWins(t *testing.T) {
	tOpt := tentpole(t, cell.STTRAM, cell.Optimistic)
	t8 := llc(t, tOpt, 350, 8)
	t4 := llc(t, tOpt, 350, 4)
	t2 := llc(t, tOpt, 350, 2)
	t1 := llc(t, tOpt, 350, 1)
	// 8-die STT lowest, followed narrowly by 4- and 2-die STT.
	if !(t8.WriteLatency < t4.WriteLatency && t4.WriteLatency < t2.WriteLatency && t2.WriteLatency < t1.WriteLatency) {
		t.Error("STT write latency should improve monotonically with stacking")
	}
	// Global winner across technologies and die counts.
	for _, dies := range []int{1, 2, 4, 8} {
		rivals := []Result{llc(t, cell.NewSRAM6T(), 350, dies)}
		for _, tc := range []cell.Technology{cell.PCM, cell.RRAM} {
			rivals = append(rivals, llc(t, tentpole(t, tc, cell.Optimistic), 350, dies))
		}
		for _, r := range rivals {
			if t8.WriteLatency >= r.WriteLatency {
				t.Errorf("8-die STT write %.2f ns should beat %s %d-die %.2f ns",
					t8.WriteLatency*1e9, r.CellName, dies, r.WriteLatency*1e9)
			}
		}
	}
	// 2D STT beats 2D SRAM on writes ("both 3D and 2D STT-RAM solutions
	// exhibit lower write latency").
	if s1 := llc(t, cell.NewSRAM6T(), 350, 1); t1.WriteLatency >= s1.WriteLatency {
		t.Error("2D STT should beat 2D SRAM write latency")
	}
}

func TestFig6PessimisticWritesWorseThanSRAM(t *testing.T) {
	// "At higher rates of write traffic, PCM and STT-RAM with pessimistic
	// underlying cell properties are consistently higher latency than
	// SRAM."
	s1 := llc(t, cell.NewSRAM6T(), 350, 1)
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM} {
		p := llc(t, tentpole(t, tc, cell.Pessimistic), 350, 8)
		if p.WriteLatency <= s1.WriteLatency {
			t.Errorf("pessimistic %v write latency should exceed SRAM", tc)
		}
	}
}

func TestFig7ENVMLeakageBand(t *testing.T) {
	// Paper (Fig. 7): "the eNVM technologies exhibit 2-10x lower power
	// than the SRAM baseline for read accesses-per-second less than 1e7,
	// even considering eNVMs with pessimistic underlying cell
	// properties". At negligible traffic the ratio is the standby ratio:
	// pessimistic cells (large write currents, hungry pumps/drivers)
	// land mid-band, optimistic cells at or somewhat above the top.
	s := llc(t, cell.NewSRAM6T(), 350, 1)
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
		p := llc(t, tentpole(t, tc, cell.Pessimistic), 350, 1)
		if ratio := s.LeakagePower / p.LeakagePower; ratio < 2 || ratio > 12 {
			t.Errorf("pessimistic %v standby %.1fx below SRAM, want the paper's 2-10x band", tc, ratio)
		}
		o := llc(t, tentpole(t, tc, cell.Optimistic), 350, 1)
		if ratio := s.LeakagePower / o.LeakagePower; ratio < 8 || ratio > 40 {
			t.Errorf("optimistic %v standby %.1fx below SRAM, want ~10-40x", tc, ratio)
		}
		if o.LeakagePower >= p.LeakagePower {
			t.Errorf("%v: optimistic should leak less than pessimistic", tc)
		}
	}
}

func TestOptimisticBeatsPessimistic(t *testing.T) {
	for _, tc := range []cell.Technology{cell.PCM, cell.STTRAM, cell.RRAM} {
		o := llc(t, tentpole(t, tc, cell.Optimistic), 350, 1)
		p := llc(t, tentpole(t, tc, cell.Pessimistic), 350, 1)
		if o.ReadLatency >= p.ReadLatency || o.WriteLatency >= p.WriteLatency {
			t.Errorf("%v: optimistic tentpole should be faster", tc)
		}
		if o.FootprintM2 >= p.FootprintM2 {
			t.Errorf("%v: optimistic tentpole should be smaller", tc)
		}
		if o.WriteEnergy >= p.WriteEnergy {
			t.Errorf("%v: optimistic tentpole should write cheaper", tc)
		}
	}
}

// --- 3D scaling behaviour.

func TestStackingShrinksFootprintAndLatency(t *testing.T) {
	for _, c := range []cell.Cell{cell.NewSRAM6T(), tentpole(t, cell.STTRAM, cell.Optimistic)} {
		prevA, prevL := math.Inf(1), math.Inf(1)
		for _, dies := range []int{1, 2, 4, 8} {
			r := llc(t, c, 350, dies)
			if r.FootprintM2 >= prevA {
				t.Errorf("%s: footprint not shrinking at %d dies", c.Name, dies)
			}
			if r.ReadLatency >= prevL {
				t.Errorf("%s: read latency not shrinking at %d dies", c.Name, dies)
			}
			prevA, prevL = r.FootprintM2, r.ReadLatency
		}
	}
}

func TestTotalSiliconGrowsWithDies(t *testing.T) {
	// Stacking shrinks the footprint but total silicon (all dies) grows
	// because per-die periphery is replicated.
	one := llc(t, cell.NewSRAM6T(), 350, 1)
	eight := llc(t, cell.NewSRAM6T(), 350, 8)
	if eight.TotalSiliconM2 <= one.TotalSiliconM2 {
		t.Error("8-die total silicon should exceed 1-die")
	}
}

// --- Optimizer behaviour.

func TestOptimizeBeatsArbitraryOrganization(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	best, err := optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range []Organization{
		{Banks: 4, Rows: 1024, Cols: 1024, ColumnMux: 2},
		{Banks: 16, Rows: 512, Cols: 512, ColumnMux: 8},
		{Banks: 64, Rows: 2048, Cols: 2048, ColumnMux: 16},
	} {
		r, err := Characterize(cfg, org)
		if err != nil {
			continue
		}
		if best.EDP() > r.EDP()*(1+1e-9) {
			t.Errorf("optimizer missed better org %v: %.3e < %.3e", org, r.EDP(), best.EDP())
		}
	}
}

func TestOptimizeTargetsDiffer(t *testing.T) {
	base := DefaultLLC(cell.NewSRAM6T(), 350, planar)

	lat := base
	lat.Target = OptimizeLatency
	rLat, err := optimize(lat)
	if err != nil {
		t.Fatal(err)
	}
	area := base
	area.Target = OptimizeArea
	rArea, err := optimize(area)
	if err != nil {
		t.Fatal(err)
	}
	rEDP, err := optimize(base)
	if err != nil {
		t.Fatal(err)
	}
	if rLat.ReadLatency > rEDP.ReadLatency*(1+1e-9) {
		t.Error("latency target should not lose to EDP target on latency")
	}
	if rArea.FootprintM2 > rEDP.FootprintM2*(1+1e-9) {
		t.Error("area target should not lose to EDP target on area")
	}
}

func TestOptimizeErrorForImpossibleConfig(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	cfg.CapacityBytes = 64 // single block: no feasible organization
	if _, err := optimize(cfg); err == nil {
		t.Error("expected no-feasible-organization error")
	}
}

func TestParetoFrontProperties(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	front, err := ParetoContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for i, a := range front {
		for j, b := range front {
			if i != j && dominates(a, b) {
				t.Fatalf("front member %d dominates member %d", i, j)
			}
		}
	}
	// Sorted by read latency.
	for i := 1; i < len(front); i++ {
		if front[i].ReadLatency < front[i-1].ReadLatency {
			t.Error("front not sorted by read latency")
		}
	}
	// The EDP optimum must not dominate-strictly-outside the front:
	// every feasible point is dominated by or present on the front.
	best, _ := optimize(cfg)
	dominatedOrPresent := false
	for _, f := range front {
		if f.Org == best.Org || dominates(f, best) || !dominates(best, f) {
			dominatedOrPresent = true
			break
		}
	}
	if !dominatedOrPresent {
		t.Error("EDP optimum unrelated to Pareto front")
	}
}

func TestSearchSpaceSize(t *testing.T) {
	if SearchSpaceSize() < 500 {
		t.Errorf("search space %d too small for a meaningful sweep", SearchSpaceSize())
	}
}

// --- Capacity scaling property.

func TestFootprintGrowsWithCapacity(t *testing.T) {
	small := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	small.CapacityBytes = 4 << 20
	large := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	large.CapacityBytes = 32 << 20
	rs, err := optimize(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := optimize(large)
	if err != nil {
		t.Fatal(err)
	}
	if rl.FootprintM2 <= rs.FootprintM2 {
		t.Error("footprint should grow with capacity")
	}
	if rl.ReadLatency <= rs.ReadLatency {
		t.Error("latency should grow with capacity")
	}
	if rl.LeakagePower <= rs.LeakagePower {
		t.Error("leakage should grow with capacity")
	}
}

// --- Corner comparisons used by downstream figures.

func TestSRAMLeakageMagnitudeAt350K(t *testing.T) {
	r := llc(t, cell.NewSRAM6T(), 350, 1)
	if r.LeakagePower < 0.3 || r.LeakagePower > 1.2 {
		t.Errorf("16MB SRAM leakage at 350K = %.2f W, want ~0.6 W (calibration anchor)", r.LeakagePower)
	}
}

func TestReadEnergyMagnitude(t *testing.T) {
	r := llc(t, cell.NewSRAM6T(), 350, 1)
	perBit := r.ReadEnergyPerBit
	if perBit < 0.2e-12 || perBit > 5e-12 {
		t.Errorf("SRAM read energy %.2f pJ/bit, want 0.2-5 (CACTI-class)", perBit*1e12)
	}
	if r.ReadLatency < 3e-9 || r.ReadLatency > 15e-9 {
		t.Errorf("16MB SRAM read latency %.1f ns, want 3-15 ns", r.ReadLatency*1e9)
	}
}

func TestVddDeepCryoBounds(t *testing.T) {
	n := tech.Node22HP()
	// 4 K is inside the deep-cryogenic extension's range; 2 K is below
	// the supported floor.
	if _, err := n.At(4); err != nil {
		t.Errorf("4 K should characterize under the deep-cryo extension: %v", err)
	}
	if _, err := n.At(2); err == nil {
		t.Error("2 K should be outside the model's range")
	}
}
