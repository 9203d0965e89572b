package stack

import (
	"testing"
	"testing/quick"
)

// configurations returns the paper's die-count sweep (1, 2, 4, 8 dies),
// capped by the style limit.
func configurations(style Style) []Config {
	var out []Config
	for d := 1; d <= style.MaxDies(); d *= 2 {
		out = append(out, Config{Dies: d, Style: style})
	}
	return out
}

func TestValidateAcceptsStandardSweep(t *testing.T) {
	for _, c := range configurations(TSVStack) {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v invalid: %v", c, err)
		}
	}
}

func TestValidateRejectsBadDieCounts(t *testing.T) {
	for _, d := range []int{0, -1, 3, 5, 6, 7, 16} {
		c := Config{Dies: d, Style: TSVStack}
		if err := c.Validate(); err == nil {
			t.Errorf("Dies=%d should be rejected", d)
		}
	}
}

func TestStyleLimits(t *testing.T) {
	if err := (Config{Dies: 4, Style: FaceToFace}).Validate(); err == nil {
		t.Error("face-to-face is limited to 2 dies (paper Sec. II-C)")
	}
	if err := (Config{Dies: 2, Style: FaceToFace}).Validate(); err != nil {
		t.Errorf("2-die face-to-face should validate: %v", err)
	}
	if err := (Config{Dies: 8, Style: Monolithic}).Validate(); err == nil {
		t.Error("monolithic is limited to 4 layers")
	}
	if err := (Config{Dies: 8, Style: TSVStack}).Validate(); err != nil {
		t.Errorf("8-die TSV should validate: %v", err)
	}
}

func TestPlanarHasNoVerticalCosts(t *testing.T) {
	p := Config{Dies: 1, Style: TSVStack}
	if p.ViaCapacitance() != 0 || p.ViaResistance() != 0 || p.ViaAreaEach() != 0 {
		t.Error("planar config must have zero via parasitics")
	}
	if p.VerticalDelay(1000) != 0 || p.VerticalEnergy(0.8) != 0 {
		t.Error("planar config must have zero vertical delay/energy")
	}
	if p.BusAreaOverhead(1024) != 0 {
		t.Error("planar config must have zero bus area")
	}
}

func TestViaDensityOrdering(t *testing.T) {
	// Monolithic vias are densest, then face-to-face, then TSV —
	// the trade-off the paper describes in Section II-C.
	tsv := Config{Dies: 2, Style: TSVStack}
	f2f := Config{Dies: 2, Style: FaceToFace}
	mono := Config{Dies: 2, Style: Monolithic}
	if !(mono.ViaAreaEach() < f2f.ViaAreaEach() && f2f.ViaAreaEach() < tsv.ViaAreaEach()) {
		t.Error("via area should order monolithic < face-to-face < TSV")
	}
	if !(mono.ViaCapacitance() < f2f.ViaCapacitance() && f2f.ViaCapacitance() < tsv.ViaCapacitance()) {
		t.Error("via capacitance should order monolithic < face-to-face < TSV")
	}
}

func TestAverageCrossingsGrowsWithDies(t *testing.T) {
	prev := -1.0
	for _, c := range configurations(TSVStack) {
		x := c.AverageCrossings()
		if x <= prev {
			t.Errorf("crossings should grow with dies: %v -> %v", prev, x)
		}
		prev = x
	}
	if (Config{Dies: 8, Style: TSVStack}).AverageCrossings() != 3.5 {
		t.Error("8-die average crossings should be 3.5")
	}
}

func TestVerticalDelayAndEnergyGrowWithDies(t *testing.T) {
	d2 := Config{Dies: 2, Style: TSVStack}
	d8 := Config{Dies: 8, Style: TSVStack}
	if d8.VerticalDelay(500) <= d2.VerticalDelay(500) {
		t.Error("8-die vertical delay should exceed 2-die")
	}
	if d8.VerticalEnergy(0.8) <= d2.VerticalEnergy(0.8) {
		t.Error("8-die vertical energy should exceed 2-die")
	}
}

func TestVerticalDelayIsSmall(t *testing.T) {
	// TSV hops must stay well below a nanosecond, or 3D latency wins
	// would be artificially suppressed.
	if d := (Config{Dies: 8, Style: TSVStack}).VerticalDelay(500); d > 300e-12 {
		t.Errorf("8-die vertical delay %.3e s, want < 300 ps", d)
	}
}

func TestConfigurationsRespectStyleCap(t *testing.T) {
	for _, tc := range []struct {
		style Style
		max   int
	}{{TSVStack, 8}, {FaceToFace, 2}, {Monolithic, 4}} {
		if err := (Config{Dies: tc.max, Style: tc.style}).Validate(); err != nil {
			t.Errorf("%v at its %d-die cap rejected: %v", tc.style, tc.max, err)
		}
		if err := (Config{Dies: 2 * tc.max, Style: tc.style}).Validate(); err == nil {
			t.Errorf("%v accepted %d dies, beyond its %d-die cap", tc.style, 2*tc.max, tc.max)
		}
	}
}

func TestStyleStringParseRoundTrip(t *testing.T) {
	for _, s := range []Style{TSVStack, FaceToFace, Monolithic} {
		got, err := ParseStyle(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, err %v", s, got, err)
		}
	}
	if _, err := ParseStyle("nope"); err == nil {
		t.Error("expected error for unknown style name")
	}
}

func TestBusAreaScalesWithWidth(t *testing.T) {
	c := Config{Dies: 4, Style: TSVStack}
	if c.BusAreaOverhead(2000) != 2*c.BusAreaOverhead(1000) {
		t.Error("bus area should be linear in width")
	}
}

func TestVerticalPropertiesNonNegativeProperty(t *testing.T) {
	f := func(dies uint8, style uint8) bool {
		c := Config{Dies: 1 << (dies % 4), Style: Style(style % 3)}
		if c.Validate() != nil {
			return true // skip invalid combos
		}
		return c.VerticalDelay(500) >= 0 && c.VerticalEnergy(0.8) >= 0 &&
			c.ViaAreaEach() >= 0 && c.AverageCrossings() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
