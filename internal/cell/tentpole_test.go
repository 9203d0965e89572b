package cell

import (
	"math"
	"testing"
	"testing/quick"
)

// byTechnology filters the database to one technology.
func byTechnology(tc Technology) []DatabaseEntry {
	var out []DatabaseEntry
	for _, e := range Database() {
		if e.Tech == tc {
			out = append(out, e)
		}
	}
	return out
}

// tentpolePair returns the optimistic and pessimistic composites.
func tentpolePair(t *testing.T, tc Technology) (opt, pess Cell) {
	t.Helper()
	opt, err := Tentpole(tc, Optimistic)
	if err != nil {
		t.Fatalf("Tentpole(%v, optimistic): %v", tc, err)
	}
	if pess, err = Tentpole(tc, Pessimistic); err != nil {
		t.Fatalf("Tentpole(%v, pessimistic): %v", tc, err)
	}
	return opt, pess
}

func TestDatabaseEntriesValidate(t *testing.T) {
	db := Database()
	if len(db) < 25 {
		t.Fatalf("database has %d entries, want a survey-sized set (>=25)", len(db))
	}
	for _, e := range db {
		if err := e.Validate(); err != nil {
			t.Errorf("entry %s: %v", e.Name, err)
		}
		// The eNVM entries mirror the NVMExplorer 2016-2020 survey; the
		// oxide-semiconductor gain-cell entries come from the newer
		// monolithic-3D eDRAM literature (2021-2024).
		loYear, hiYear := 2016, 2020
		if e.Tech == OSGC {
			loYear, hiYear = 2021, 2024
		}
		if e.Year < loYear || e.Year > hiYear {
			t.Errorf("entry %s: year %d outside %d-%d survey window", e.Name, e.Year, loYear, hiYear)
		}
		switch e.Venue {
		case "ISSCC", "IEDM", "VLSI":
		default:
			t.Errorf("entry %s: unexpected venue %q", e.Name, e.Venue)
		}
	}
}

func TestDatabaseCoversAllENVMs(t *testing.T) {
	for _, tc := range []Technology{PCM, STTRAM, RRAM, SOTRAM} {
		if n := len(byTechnology(tc)); n < 4 {
			t.Errorf("database has %d %v entries, want >= 4 for a meaningful tentpole", n, tc)
		}
	}
}

func TestTentpoleOrdering(t *testing.T) {
	for _, tc := range []Technology{PCM, STTRAM, RRAM, SOTRAM} {
		opt, pess := tentpolePair(t, tc)
		if err := opt.Validate(); err != nil {
			t.Errorf("optimistic %v invalid: %v", tc, err)
		}
		if err := pess.Validate(); err != nil {
			t.Errorf("pessimistic %v invalid: %v", tc, err)
		}
		if opt.AreaF2 >= pess.AreaF2 {
			t.Errorf("%v: optimistic area %.1f >= pessimistic %.1f", tc, opt.AreaF2, pess.AreaF2)
		}
		if opt.WritePulseS >= pess.WritePulseS {
			t.Errorf("%v: optimistic write pulse not faster", tc)
		}
		if opt.WriteEnergyJ >= pess.WriteEnergyJ {
			t.Errorf("%v: optimistic write energy not lower", tc)
		}
		if opt.EnduranceCycles <= pess.EnduranceCycles {
			t.Errorf("%v: optimistic endurance not higher", tc)
		}
		if opt.MinSenseTimeS >= pess.MinSenseTimeS {
			t.Errorf("%v: optimistic sensing not faster", tc)
		}
	}
}

func TestTentpoleIsEnvelopeOfDatabase(t *testing.T) {
	// Property: the optimistic composite is no worse than any individual
	// entry in every favourable direction, and pessimistic no better.
	for _, tc := range []Technology{PCM, STTRAM, RRAM, SOTRAM} {
		opt, pess := tentpolePair(t, tc)
		for _, e := range byTechnology(tc) {
			if opt.AreaF2 > e.AreaF2 || pess.AreaF2 < e.AreaF2 {
				t.Errorf("%v: area envelope violated by %s", tc, e.Name)
			}
			if opt.WritePulseS > e.WritePulseS || pess.WritePulseS < e.WritePulseS {
				t.Errorf("%v: write-pulse envelope violated by %s", tc, e.Name)
			}
			if opt.WriteEnergyJ > e.WriteEnergyJ || pess.WriteEnergyJ < e.WriteEnergyJ {
				t.Errorf("%v: write-energy envelope violated by %s", tc, e.Name)
			}
			if opt.EnduranceCycles < e.EnduranceCycles || pess.EnduranceCycles > e.EnduranceCycles {
				t.Errorf("%v: endurance envelope violated by %s", tc, e.Name)
			}
		}
	}
}

func TestTentpoleRejectsNonSurveyedTechnologies(t *testing.T) {
	for _, tc := range []Technology{SRAM, EDRAM3T, EDRAM1T1C} {
		if _, err := Tentpole(tc, Optimistic); err == nil {
			t.Errorf("Tentpole(%v) should fail: no survey entries", tc)
		}
	}
}

func TestCornerString(t *testing.T) {
	if Optimistic.String() != "optimistic" || Pessimistic.String() != "pessimistic" {
		t.Error("corner names wrong")
	}
	if len(Corners()) != 2 {
		t.Error("Corners() should return both corners")
	}
}

func TestPCMTentpoleMatchesPaperScale(t *testing.T) {
	// The paper's headline density claim requires an optimistic PCM cell
	// far below SRAM's 146 F^2 — the survey optimum is ~4.8 F^2.
	opt, _ := tentpolePair(t, PCM)
	if opt.AreaF2 > 6 {
		t.Errorf("optimistic PCM cell %.1f F^2, want <= 6", opt.AreaF2)
	}
	sttOpt, _ := tentpolePair(t, STTRAM)
	if sttOpt.WritePulseS > 3e-9 {
		t.Errorf("optimistic STT write pulse %.2g s, want <= 3 ns (fast-write corner)", sttOpt.WritePulseS)
	}
}

func TestDatabaseDeterministic(t *testing.T) {
	a, b := Database(), Database()
	if len(a) != len(b) {
		t.Fatal("database length changed between calls")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].AreaF2 != b[i].AreaF2 {
			t.Fatalf("database entry %d differs between calls", i)
		}
	}
	// Mutating one copy must not affect a fresh copy.
	a[0].AreaF2 = 1
	if Database()[0].AreaF2 == 1 {
		t.Error("Database() returns shared state")
	}
}

func TestTentpoleNamesAndSources(t *testing.T) {
	opt, _ := Tentpole(PCM, Optimistic)
	if opt.Name != "pcm-optimistic" {
		t.Errorf("optimistic PCM name %q", opt.Name)
	}
	pess, _ := Tentpole(RRAM, Pessimistic)
	if pess.Name != "rram-pessimistic" {
		t.Errorf("pessimistic RRAM name %q", pess.Name)
	}
}

func TestCellPropertyDimensionsAlwaysPositive(t *testing.T) {
	f := func(areaScaled, aspectScaled uint8) bool {
		area := 1 + float64(areaScaled)
		aspect := 0.25 + float64(aspectScaled)/64.0
		c := NewSRAM6T()
		c.AreaF2, c.AspectRatio = area, aspect
		w, h := c.Dimensions(22e-9)
		return w > 0 && h > 0 && !math.IsNaN(w) && !math.IsNaN(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTentpoleMemoMatchesFreshFold pins the per-process composite memo: for
// every surveyed technology and corner, Tentpole returns exactly the fold
// over a fresh byTechnology filter, and a caller mutating its copy cannot
// change what the next caller gets.
func TestTentpoleMemoMatchesFreshFold(t *testing.T) {
	for _, tc := range []Technology{PCM, STTRAM, RRAM, SOTRAM, OSGC} {
		for _, corner := range Corners() {
			got, err := Tentpole(tc, corner)
			if err != nil {
				t.Fatalf("Tentpole(%v, %v): %v", tc, corner, err)
			}
			if want := foldTentpole(tc, corner, byTechnology(tc)); got != want {
				t.Errorf("Tentpole(%v, %v) = %+v, want the fresh fold %+v", tc, corner, got, want)
			}
			got.Name, got.AreaF2, got.EnduranceCycles = "mutated", -1, 0
			again, err := Tentpole(tc, corner)
			if err != nil {
				t.Fatal(err)
			}
			if again == got || again.Name == "mutated" {
				t.Errorf("Tentpole(%v, %v): a caller's mutation leaked into the next call", tc, corner)
			}
		}
	}
	if _, err := Tentpole(SRAM, Optimistic); err == nil {
		t.Error("Tentpole(SRAM) should fail: SRAM is not surveyed")
	}
}
