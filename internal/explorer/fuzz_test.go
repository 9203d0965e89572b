package explorer

// FuzzParsePoint pins the spec round-trip contract the HTTP cache keys
// rely on: for any spec ParsePoint accepts,
//
//  1. its Canonical form parses to an identical point (canonicalization
//     never changes meaning),
//  2. Canonical is idempotent, and
//  3. DesignPoint.Spec is a fixed point of parsing — parsing the recovered
//     spec yields the same point, and recovering again yields the same
//     spec.
//
// Invalid specs must be rejected by ParsePoint with an error, never a
// panic. Seeds cover the points the study's golden artifacts cache-key:
// the cryogenic volatiles and the eNVM tentpole corners across the
// stacking sweep.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/workload"
)

// Canonical returns the spec with the defaults filled in: equal effective
// points have equal canonical specs.
func (ps PointSpec) Canonical() PointSpec { return ps.withDefaults() }

// Spec is the inverse of ParsePoint: the canonical wire form that resolves
// back to an identical point. The tentpole corner is recovered from the
// composite cell's name ("pcm-pessimistic" — see cell.Tentpole); builtin
// cells report the default corner, which parsing ignores for them.
func (p DesignPoint) Spec() PointSpec {
	corner := cell.Optimistic
	if strings.HasSuffix(p.Cell.Name, "-"+cell.Pessimistic.String()) {
		corner = cell.Pessimistic
	}
	return PointSpec{
		Cell:          p.Cell.Tech.String(),
		Corner:        corner.String(),
		Dies:          p.Dies,
		TemperatureK:  p.Temperature,
		Style:         p.Style.String(),
		CapacityBytes: p.CapacityBytes,
		FrequencyHz:   p.Frequency(),
	}
}

// parsePointSeed is one FuzzParsePoint corpus entry.
type parsePointSeed struct {
	cell, corner, style string
	dies                int
	tempK               float64
	capacity            int64
	freqHz              float64
}

// parsePointSeeds are the golden cache-key seeds: (cell, corner, style,
// dies, temperature_k, capacity_bytes, frequency_hz).
var parsePointSeeds = []parsePointSeed{
	{"SRAM", "", "", 0, 0, 0, 0},                       // the baseline, all defaults
	{"SRAM", "optimistic", "tsv", 1, 77, 0, 0},         // Fig. 1 cryogenic endpoint
	{"3T-eDRAM", "", "tsv", 1, 77, 0, 0},               // Fig. 3/4 cold volatile
	{"1T1C-eDRAM", "", "", 1, 350, 0, 0},               // builtin with ignored corner
	{"PCM", "optimistic", "tsv", 8, 350, 0, 0},         // Fig. 6/7 tentpole
	{"PCM", "pessimistic", "tsv", 4, 350, 0, 0},        //
	{"STT-RAM", "optimistic", "tsv", 2, 350, 0, 0},     //
	{"STT-RAM", "pessimistic", "tsv", 1, 350, 0, 0},    //
	{"RRAM", "optimistic", "monolithic", 4, 350, 0, 0}, //
	{"RRAM", "pessimistic", "face-to-face", 2, 350, 0, 0},
	{"SOT-RAM", "optimistic", "tsv", 1, 350, 32 << 20, 0}, // capacity override
	{"OS-GC", "optimistic", "monolithic", 4, 77, 0, 0},    // gain-cell sweep point
	{"OS-GC", "pessimistic", "monolithic", 2, 4, 0, 0},    // deep-cryo gain cell
	{"SRAM", "", "tsv", 1, 4, 0, 0},                       // 4 K characterization
	{"SRAM", "", "tsv", 1, 350, 0, 2.5e9},                 // frequency override
	{"3T-eDRAM", "", "tsv", 1, 77, 0, 1e10},               // cryo-boosted clock
	{"SRAM", "", "tsv", 1, 350, 0, 5e9},                   // explicit default clock
	{"SRAM", "", "tsv", 1, 349.9, 0, 5.0001e9},            // non-integer temperature and clock
	{"3T-eDRAM", "", "tsv", 1, 77.125, 0, 0},              // fractional cryogenic temperature
	{"FeRAM", "typical", "bga", 3, -40, -1, -5},           // invalid on every axis
}

func FuzzParsePoint(f *testing.F) {
	for _, s := range parsePointSeeds {
		f.Add(s.cell, s.corner, s.style, s.dies, s.tempK, s.capacity, s.freqHz)
	}
	f.Fuzz(func(t *testing.T, cellName, corner, style string, dies int, tempK float64, capacity int64, freqHz float64) {
		spec := PointSpec{
			Cell: cellName, Corner: corner, Style: style,
			Dies: dies, TemperatureK: tempK, CapacityBytes: capacity,
			FrequencyHz: freqHz,
		}
		p, err := ParsePoint(spec)
		if err != nil {
			return // rejected specs only need to not panic
		}
		if p.Label == "" || p.Key() == "" {
			t.Fatalf("accepted point has empty identity: %+v", p)
		}

		canon := spec.Canonical()
		if again := canon.Canonical(); again != canon {
			t.Errorf("Canonical not idempotent: %+v -> %+v", canon, again)
		}
		p2, err := ParsePoint(canon)
		if err != nil {
			t.Fatalf("canonical form of an accepted spec rejected: %+v: %v", canon, err)
		}
		if p2.Key() != p.Key() || p2.Label != p.Label {
			t.Errorf("canonicalization changed the point:\nspec:  %+v -> %s (%s)\ncanon: %+v -> %s (%s)",
				spec, p.Key(), p.Label, canon, p2.Key(), p2.Label)
		}

		recovered := p.Spec()
		p3, err := ParsePoint(recovered)
		if err != nil {
			t.Fatalf("recovered spec of an accepted point rejected: %+v: %v", recovered, err)
		}
		if p3.Key() != p.Key() || p3.Label != p.Label {
			t.Errorf("Spec round trip changed the point: %+v -> %+v -> %s, want %s",
				spec, recovered, p3.Key(), p.Key())
		}
		if fixed := p3.Spec(); fixed != recovered {
			t.Errorf("Spec is not a parse fixed point: %+v -> %+v", recovered, fixed)
		}
	})
}

// sprintfKey is DesignPoint.Key's original fmt.Sprintf form, the spelling
// every char| store address was written with.
func sprintfKey(p DesignPoint) string {
	k := fmt.Sprintf("%s|%s|%s|%d|%v|%d|%s", p.Cell.Name, p.Cell.Tech, strconv.FormatFloat(p.Temperature, 'g', -1, 64),
		p.Dies, p.Style, p.CapacityBytes, p.Node.Name)
	if f := p.Frequency(); f != workload.DefaultFrequencyHz {
		k += "|f" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	return k
}

// TestKeyMatchesSprintf pins DesignPoint.Key byte for byte to its original
// fmt.Sprintf spelling on every accepted fuzz-corpus point, and on raw
// points with values no spec parses to (unnamed technology and style
// numbers, negative counts, a long cell name).
func TestKeyMatchesSprintf(t *testing.T) {
	var points []DesignPoint
	for _, s := range parsePointSeeds {
		p, err := ParsePoint(PointSpec{
			Cell: s.cell, Corner: s.corner, Style: s.style, Dies: s.dies,
			TemperatureK: s.tempK, CapacityBytes: s.capacity, FrequencyHz: s.freqHz,
		})
		if err != nil {
			continue
		}
		points = append(points, p)
	}
	if len(points) < len(parsePointSeeds)-1 {
		t.Fatalf("only %d of %d corpus specs parsed", len(points), len(parsePointSeeds))
	}
	odd := Baseline()
	odd.Cell.Name = "a-cell-name-long-enough-to-outgrow-any-small-key-buffer-" + odd.Cell.Name
	odd.Cell.Tech = cell.Technology(99)
	odd.Style = stack.Style(-3)
	odd.Dies = -2
	odd.CapacityBytes = -1
	odd.Temperature = 1e-7
	odd.FrequencyHz = 123456789.125
	slow := Baseline()
	slow.FrequencyHz = 1234.5 // below 1e6, where 'g' and 'e' spellings differ
	points = append(points, odd, slow, DesignPoint{})
	for _, p := range points {
		if got, want := p.Key(), sprintfKey(p); got != want {
			t.Errorf("Key = %q, want the Sprintf spelling %q", got, want)
		}
	}
}
