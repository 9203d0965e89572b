package workload

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
)

func TestProfilesCoverFullSuite(t *testing.T) {
	ps := Profiles()
	if len(ps) != 23 {
		t.Fatalf("got %d profiles, want the 23 SPECrate 2017 benchmarks", len(ps))
	}
	ints, fps := 0, 0
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		switch p.Suite {
		case "intrate":
			ints++
		case "fprate":
			fps++
		default:
			t.Errorf("%s: unknown suite %q", p.Name, p.Suite)
		}
	}
	if ints != 10 || fps != 13 {
		t.Errorf("suite split %d int / %d fp, want 10/13", ints, fps)
	}
}

func TestStaticTrafficMatchesProfiles(t *testing.T) {
	// Every profile has a static entry and vice versa, and the static
	// read rate equals the profile-derived analytic rate within 25%
	// (rate = cores * IPC * f * memops * LLCFrac).
	for _, p := range Profiles() {
		st, err := StaticTrafficFor(p.Name)
		if err != nil {
			t.Errorf("no static traffic for %s", p.Name)
			continue
		}
		analytic := Cores * p.IPC * FrequencyHz * (p.MemOpsPerKiloInstr / 1000) * p.LLCFrac
		if ratio := st.ReadsPerSec / analytic; ratio < 0.75 || ratio > 1.35 {
			t.Errorf("%s: static %.3g vs analytic %.3g reads/s (ratio %.2f)",
				p.Name, st.ReadsPerSec, analytic, ratio)
		}
	}
	if len(StaticTraffic()) != len(Profiles()) {
		t.Error("static table and profiles out of sync")
	}
}

func TestTrafficLandscapeShape(t *testing.T) {
	byName := map[string]Traffic{}
	var maxReads Traffic
	for _, tr := range StaticTraffic() {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		byName[tr.Benchmark] = tr
		if tr.ReadsPerSec > maxReads.ReadsPerSec {
			maxReads = tr
		}
	}
	// povray is the paper's sub-5e4 example.
	if byName["povray"].ReadsPerSec >= LowBandMax {
		t.Error("povray must sit below 5e4 reads/s")
	}
	// mcf is the read-traffic maximum and has the lowest write:read
	// ratio (the Fig. 7 exception).
	if maxReads.Benchmark != "mcf" {
		t.Errorf("highest read traffic is %s, want mcf", maxReads.Benchmark)
	}
	if byName["mcf"].ReadsPerSec < HighBandMin {
		t.Error("mcf must sit in the high band")
	}
	for name, tr := range byName {
		if name == "mcf" {
			continue
		}
		if tr.WriteReadRatio() <= byName["mcf"].WriteReadRatio() {
			t.Errorf("%s write:read ratio %.3f should exceed mcf's %.3f",
				name, tr.WriteReadRatio(), byName["mcf"].WriteReadRatio())
		}
	}
	// The range spans the paper's 1e4..2e8 landscape.
	if byName["exchange2"].ReadsPerSec > 5e4 || maxReads.ReadsPerSec < 1e8 {
		t.Error("traffic range should span ~1e4 to ~2e8 reads/s")
	}
	// namd (Figs. 1 and 4) is a high-traffic benchmark per the paper
	// ("the huge LLC accesses of the workload").
	if BandOf(byName["namd"].ReadsPerSec) != BandHigh {
		t.Error("namd should classify into the high band")
	}
}

func TestBandsPartitionBenchmarks(t *testing.T) {
	total := 0
	for _, b := range Bands() {
		total += len(InBand(b))
	}
	if total != len(StaticTraffic()) {
		t.Errorf("bands cover %d benchmarks, want %d", total, len(StaticTraffic()))
	}
	if n := len(InBand(BandLow)); n < 2 {
		t.Errorf("low band has %d members, want >= 2 (povray, exchange2)", n)
	}
	if n := len(InBand(BandMid)); n < 5 {
		t.Errorf("mid band has %d members, want a populated middle", n)
	}
	if n := len(InBand(BandHigh)); n < 8 {
		t.Errorf("high band has %d members, want the majority of fp benchmarks", n)
	}
}

func TestBandOfBoundaries(t *testing.T) {
	cases := map[float64]Band{
		1e3: BandLow, 4.9e4: BandLow,
		5e4: BandMid, 1e6: BandMid, 8e6: BandMid,
		8.1e6: BandHigh, 2e8: BandHigh,
	}
	for rate, want := range cases {
		if got := BandOf(rate); got != want {
			t.Errorf("BandOf(%g) = %v, want %v", rate, got, want)
		}
	}
}

func TestRepresentativeIsBandMaximum(t *testing.T) {
	for _, b := range Bands() {
		rep, err := Representative(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range InBand(b) {
			if tr.ReadsPerSec > rep.ReadsPerSec {
				t.Errorf("band %v representative %s is not the maximum", b, rep.Benchmark)
			}
		}
	}
	if rep, _ := Representative(BandHigh); rep.Benchmark != "mcf" {
		t.Errorf("high-band representative = %s, want mcf", rep.Benchmark)
	}
}

func TestSortedByReadsAscending(t *testing.T) {
	ts := SortedByReads()
	for i := 1; i < len(ts); i++ {
		if ts[i].ReadsPerSec < ts[i-1].ReadsPerSec {
			t.Fatal("SortedByReads not ascending")
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("mcf")
	if err != nil || p.Name != "mcf" {
		t.Errorf("ProfileByName(mcf) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("doom"); err == nil {
		t.Error("unknown benchmark should error")
	}
	if len(Names()) != 23 {
		t.Error("Names() should list 23 benchmarks")
	}
}

func TestGeneratorConstruction(t *testing.T) {
	for _, p := range Profiles() {
		g, err := p.Generator(1)
		if err != nil {
			t.Errorf("%s: generator failed: %v", p.Name, err)
			continue
		}
		for i := 0; i < 100; i++ {
			g.Next()
		}
	}
}

func TestMeasureReproducesTrafficOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed measurement")
	}
	// The simulated rates should track the static (Sniper-substitute)
	// table: within ~3x for high-traffic benchmarks and preserving the
	// povray << namd << mcf ordering.
	measure := func(name string, n int) Traffic {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Measure(context.Background(), p, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	mcf := measure("mcf", 600000)
	namd := measure("namd", 600000)
	povray := measure("povray", 2000000)
	if !(povray.ReadsPerSec < namd.ReadsPerSec && namd.ReadsPerSec < mcf.ReadsPerSec) {
		t.Errorf("ordering violated: povray %.3g namd %.3g mcf %.3g",
			povray.ReadsPerSec, namd.ReadsPerSec, mcf.ReadsPerSec)
	}
	for _, pair := range []struct {
		got  Traffic
		name string
	}{{mcf, "mcf"}, {namd, "namd"}} {
		want, _ := StaticTrafficFor(pair.name)
		ratio := pair.got.ReadsPerSec / want.ReadsPerSec
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: simulated %.3g vs static %.3g reads/s (ratio %.2f)",
				pair.name, pair.got.ReadsPerSec, want.ReadsPerSec, ratio)
		}
	}
	if math.IsNaN(povray.WritesPerSec) {
		t.Error("NaN traffic")
	}
}

func TestMeasureRejectsBadInput(t *testing.T) {
	p, _ := ProfileByName("leela")
	if _, err := Measure(context.Background(), p, 0, 1); err == nil {
		t.Error("zero accesses should fail")
	}
	p.ZipfSkew = 0.5
	if _, err := Measure(context.Background(), p, 100, 1); err == nil {
		t.Error("invalid profile should fail")
	}
}

func TestProfileValidateCatchesErrors(t *testing.T) {
	base, _ := ProfileByName("gcc")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.HotSetBytes = 16 },
		func(p *Profile) { p.LLCFrac = 1.5 },
		func(p *Profile) { p.ZipfSkew = 1.0 },
		func(p *Profile) { p.WriteFrac = -0.1 },
		func(p *Profile) { p.MemOpsPerKiloInstr = 0 },
		func(p *Profile) { p.IPC = 0 },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestCalibrationSimulatedVsStaticRankCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite simulation")
	}
	// Simulate every benchmark stand-in and check that the simulator
	// reproduces the static (Sniper-substitute) traffic landscape: a
	// strong Spearman rank correlation across the 23 benchmarks and
	// agreement within ~4x for the high-traffic half (low-traffic
	// benchmarks see only a handful of LLC events in a bounded run, so
	// their rates are noisy by construction).
	type pair struct{ static, simulated float64 }
	pairs := map[string]pair{}
	for _, p := range Profiles() {
		st, err := StaticTrafficFor(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Measure(context.Background(), p, 300000, 7)
		if err != nil {
			t.Fatal(err)
		}
		pairs[p.Name] = pair{static: st.ReadsPerSec, simulated: m.ReadsPerSec}
		if st.ReadsPerSec > 1e6 {
			ratio := m.ReadsPerSec / st.ReadsPerSec
			if ratio < 0.25 || ratio > 4 {
				t.Errorf("%s: simulated %.3g vs static %.3g reads/s (ratio %.2f)",
					p.Name, m.ReadsPerSec, st.ReadsPerSec, ratio)
			}
		}
	}
	// Spearman rank correlation over the two columns.
	names := make([]string, 0, len(pairs))
	for n := range pairs {
		names = append(names, n)
	}
	rank := func(value func(pair) float64) map[string]float64 {
		sorted := append([]string(nil), names...)
		sort.Slice(sorted, func(i, j int) bool {
			return value(pairs[sorted[i]]) < value(pairs[sorted[j]])
		})
		out := map[string]float64{}
		for i, n := range sorted {
			out[n] = float64(i)
		}
		return out
	}
	rs := rank(func(p pair) float64 { return p.static })
	rm := rank(func(p pair) float64 { return p.simulated })
	var d2 float64
	for _, n := range names {
		d := rs[n] - rm[n]
		d2 += d * d
	}
	nf := float64(len(names))
	rho := 1 - 6*d2/(nf*(nf*nf-1))
	if rho < 0.85 {
		t.Errorf("Spearman rank correlation simulated-vs-static = %.3f, want >= 0.85", rho)
	}
}

func TestMeasureAllParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed measurement")
	}
	rows, err := MeasureAll(context.Background(), 100000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 23 {
		t.Fatalf("MeasureAll returned %d rows, want 23", len(rows))
	}
	for i, p := range Profiles() {
		if rows[i].Benchmark != p.Name {
			t.Errorf("row %d = %s, want %s (canonical order)", i, rows[i].Benchmark, p.Name)
		}
		if rows[i].ReadsPerSec < 0 || rows[i].WritesPerSec < 0 {
			t.Errorf("%s: negative traffic", rows[i].Benchmark)
		}
	}
	// Determinism despite parallel execution.
	again, err := MeasureAll(context.Background(), 100000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("MeasureAll not deterministic at %s", rows[i].Benchmark)
		}
	}
}

// TestMeasureAllHonoursContext: a cancelled context stops the replays and
// surfaces as the call's error.
func TestMeasureAllHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasureAll(ctx, 100000, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureAll under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestMeasureHonoursContext: Measure under a cancelled context returns
// its error before the first chunk (sim's window contract test pins that
// a cancelled window replays nothing).
func TestMeasureHonoursContext(t *testing.T) {
	p, err := ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Measure(ctx, p, WindowAccesses, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("Measure under a cancelled context: err = %v, want context.Canceled", err)
	}
}
