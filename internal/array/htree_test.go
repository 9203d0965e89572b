package array

import (
	"math"
	"testing"
	"testing/quick"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
)

func corner350(t *testing.T) tech.DeviceCorner {
	t.Helper()
	c, err := tech.Node22HP().At(350)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildHTree builds the tree of a die at the corner's temperature with
// the global wire scaled by wireScale, as characterize does with the wire
// its boundContext built.
func buildHTree(footprintM2, banksPerDie float64, corner tech.DeviceCorner, wireScale float64) (htree, error) {
	w, err := tech.NewWireScaled(tech.WireGlobal, corner.Temperature, wireScale)
	if err != nil {
		return htree{}, err
	}
	return newHTree(footprintM2, banksPerDie, &corner, w), nil
}

// buildInBankRoute is buildHTree for the intermediate-layer in-bank route.
func buildInBankRoute(footprintM2, banksPerDie float64, corner tech.DeviceCorner, wireScale float64) (inBankRoute, error) {
	w, err := tech.NewWireScaled(tech.WireIntermediate, corner.Temperature, wireScale)
	if err != nil {
		return inBankRoute{}, err
	}
	return newInBankRoute(footprintM2, banksPerDie, &corner, w), nil
}

// treeSegments lists the tree's segment lengths, root first, as delay and
// pathLength generate them.
func treeSegments(h htree) []float64 {
	segs := make([]float64, h.hops)
	l := h.root
	for i := range segs {
		segs[i] = l
		l /= 2
	}
	return segs
}

func TestHTreeSegmentsHalve(t *testing.T) {
	h, err := buildHTree(16e-6, 16, corner350(t), 1) // 16 mm^2, 16 banks
	if err != nil {
		t.Fatal(err)
	}
	segs := treeSegments(h)
	if len(segs) != h.hops {
		t.Fatalf("segments %d != hops %d", len(segs), h.hops)
	}
	if math.Abs(segs[0]-4e-3) > 1e-12 {
		t.Errorf("root segment %g, want the die side 4 mm", segs[0])
	}
	for i := 1; i < len(segs); i++ {
		if math.Abs(segs[i]-segs[i-1]/2) > 1e-15 {
			t.Errorf("segment %d should halve: %g vs %g", i, segs[i], segs[i-1])
		}
	}
	// 16 banks per die -> log2(16)+1 = 5 hops.
	if h.hops != 5 {
		t.Errorf("hops = %d, want 5", h.hops)
	}
}

func TestHTreeMinimumHops(t *testing.T) {
	h, err := buildHTree(1e-6, 1, corner350(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.hops != 2 {
		t.Errorf("single-bank die should still have 2 hops, got %d", h.hops)
	}
}

func TestHTreeDelayGrowsSuperlinearlyWithArea(t *testing.T) {
	c := corner350(t)
	small, _ := buildHTree(1e-6, 8, c, 1)
	large, _ := buildHTree(16e-6, 8, c, 1)
	ds, dl := small.delay(), large.delay()
	if dl <= ds {
		t.Fatal("bigger die must have slower H-tree")
	}
	// Side grew 4x; the unbuffered segments' RC term grows ~16x, so the
	// total should grow far more than 4x once wires dominate.
	if dl/ds < 4 {
		t.Errorf("delay ratio %.2f for 4x side growth, want superlinear (> 4)", dl/ds)
	}
}

func TestHTreeColdIsFaster(t *testing.T) {
	hot, _ := buildHTree(16e-6, 16, corner350(t), 1)
	coldCorner, err := tech.Node22HP().At(77)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := buildHTree(16e-6, 16, coldCorner, 1)
	if cold.delay() >= hot.delay() {
		t.Fatal("77 K H-tree should beat 350 K")
	}
	if r := hot.delay() / cold.delay(); r < 2.5 || r > 7 {
		t.Errorf("cryogenic H-tree speedup %.2fx, want 2.5-7x (wire-dominated)", r)
	}
}

func TestHTreeEnergyScalesWithPathLength(t *testing.T) {
	c := corner350(t)
	small, _ := buildHTree(1e-6, 8, c, 1)
	large, _ := buildHTree(4e-6, 8, c, 1)
	if large.pathLength() <= small.pathLength() {
		t.Fatal("longer die must have a longer path")
	}
	ratio := large.energyPerBit() / small.energyPerBit()
	want := large.pathLength() / small.pathLength()
	if math.Abs(ratio-want)/want > 1e-9 {
		t.Errorf("energy ratio %.3f should track length ratio %.3f", ratio, want)
	}
}

func TestHTreeRejectsBadTemperature(t *testing.T) {
	bad := tech.DeviceCorner{Temperature: 2}
	if _, err := buildHTree(1e-6, 4, bad, 1); err == nil {
		t.Error("out-of-range corner temperature should fail")
	}
}

func TestInBankRouteShrinksWithMoreBanks(t *testing.T) {
	c := corner350(t)
	few, _ := buildInBankRoute(16e-6, 4, c, 1)
	many, _ := buildInBankRoute(16e-6, 64, c, 1)
	if many.length >= few.length {
		t.Fatal("more banks should mean smaller banks and shorter routes")
	}
	if many.delay() >= few.delay() {
		t.Fatal("shorter route must be faster")
	}
}

func TestAreasFoldAcrossDies(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Config{Dies: 8, Style: stack.TSVStack})
	org := Organization{Banks: 16, Rows: 512, Cols: 1024, ColumnMux: 4}
	d, err := cfg.derive(org)
	if err != nil {
		t.Fatal(err)
	}
	a8 := areas(&cfg, org, &d)

	cfg1 := cfg
	cfg1.Stack = planar
	d1, err := cfg1.derive(org)
	if err != nil {
		t.Fatal(err)
	}
	a1 := areas(&cfg1, org, &d1)

	// Foldable area and cell area are die-count invariant.
	if math.Abs(a8.foldable-a1.foldable)/a1.foldable > 1e-12 {
		t.Error("foldable area must not depend on die count")
	}
	if a8.cellArea != a1.cellArea {
		t.Error("cell area must not depend on die count")
	}
	// The footprint folds the cells but keeps per-die periphery.
	wantFootprint := a1.foldable/8 + a8.perDieFixed
	if math.Abs(a8.footprint-wantFootprint)/wantFootprint > 1e-12 {
		t.Errorf("footprint %.4g, want foldable/8 + fixed = %.4g", a8.footprint, wantFootprint)
	}
	// Total silicon grows with replication.
	if a8.totalSilicon <= a1.totalSilicon {
		t.Error("8-die total silicon should exceed planar")
	}
	// The wire core excludes the per-die I/O ring.
	if a8.core >= a8.footprint {
		t.Error("core must be smaller than the footprint")
	}
}

func TestAreasPumpScalesWithWriteCurrent(t *testing.T) {
	org := Organization{Banks: 16, Rows: 512, Cols: 1024, ColumnMux: 4}
	lo, err := cell.Tentpole(cell.STTRAM, cell.Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	hi := lo
	hi.WriteCurrentA *= 3
	cfgLo := DefaultLLC(lo, 350, planar)
	cfgHi := DefaultLLC(hi, 350, planar)
	dLo, _ := cfgLo.derive(org)
	dHi, _ := cfgHi.derive(org)
	aLo := areas(&cfgLo, org, &dLo)
	aHi := areas(&cfgHi, org, &dHi)
	if aHi.perDieFixed <= aLo.perDieFixed {
		t.Error("higher write current must grow the per-die pump area")
	}
}

func TestComponentsTotalProperty(t *testing.T) {
	f := func(a, b, c, d, e uint8) bool {
		comp := Components{
			HTreeRequest: float64(a),
			Decode:       float64(b),
			Wordline:     float64(c),
			BitlineSense: float64(d),
			WritePulse:   float64(e),
		}
		want := float64(a) + float64(b) + float64(c) + float64(d) + float64(e)
		return comp.Total() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrganizationString(t *testing.T) {
	o := Organization{Banks: 8, Rows: 512, Cols: 1024, ColumnMux: 4}
	if got := o.String(); got != "banks=8 mat=512x1024 mux=4" {
		t.Errorf("String = %q", got)
	}
}

func TestTargetStrings(t *testing.T) {
	want := map[Target]string{
		OptimizeEDP: "edp", OptimizeLatency: "latency", OptimizeArea: "area",
		OptimizeEnergy: "energy", OptimizeLeakage: "leakage",
	}
	for tr, s := range want {
		if tr.String() != s {
			t.Errorf("Target(%d).String() = %q, want %q", int(tr), tr.String(), s)
		}
	}
}

func TestDestructiveReadCostsRestore(t *testing.T) {
	// The 1T1C exclusion mechanism: destructive reads extend the read
	// path by the restore time and pay row-restore energy.
	oneTC := cell.NewEDRAM1T1C()
	nonDest := oneTC
	nonDest.DestructiveRead = false
	nonDest.Name = "edram-1t1c-hypothetical"
	org := Organization{Banks: 16, Rows: 256, Cols: 1024, ColumnMux: 4}
	rd, err := Characterize(DefaultLLC(oneTC, 350, planar), org)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Characterize(DefaultLLC(nonDest, 350, planar), org)
	if err != nil {
		t.Fatal(err)
	}
	if rd.ReadLatency <= rn.ReadLatency {
		t.Error("destructive read must be slower than its hypothetical non-destructive twin")
	}
	if rd.ReadEnergy <= rn.ReadEnergy {
		t.Error("destructive read must cost more energy")
	}
	if rd.WriteLatency != rn.WriteLatency {
		t.Error("writes should be unaffected by the read mechanism")
	}
}
