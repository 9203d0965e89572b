package explorer

import (
	"context"
	"math"
	"strings"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/workload"
)

// The frequency axis must not disturb any identity that predates it: cache
// keys persisted by internal/store ("char|<key>", "jobcell|<key>|...") were
// minted before points carried a clock, so every default-clock point must
// keep the exact historical key shape.

func TestDefaultFrequencyKeyUnchanged(t *testing.T) {
	if got, want := Baseline().Key(), "sram-6t|SRAM|350|1|tsv|0|"; got != want {
		t.Fatalf("baseline key %q, want the pre-frequency shape %q", got, want)
	}
	// A parsed point carries the default explicitly — still no segment.
	p, err := ParsePoint(PointSpec{Cell: "SRAM", TemperatureK: 350})
	if err != nil {
		t.Fatal(err)
	}
	if p.FrequencyHz != workload.DefaultFrequencyHz {
		t.Fatalf("parsed point frequency %g, want the default filled in", p.FrequencyHz)
	}
	if got := p.Key(); got != "sram-6t|SRAM|350|1|tsv|0|" {
		t.Errorf("parsed default-clock key %q grew a frequency segment", got)
	}
	// And so does an explicit 5 GHz spec.
	p5, err := ParsePoint(PointSpec{Cell: "SRAM", TemperatureK: 350, FrequencyHz: 5e9})
	if err != nil {
		t.Fatal(err)
	}
	if p5.Key() != p.Key() || p5.Label != p.Label {
		t.Errorf("explicit 5 GHz differs from implicit default: %q vs %q", p5.Key(), p.Key())
	}
}

func TestFrequencyKeySegment(t *testing.T) {
	p := atClock(Baseline(), 2.5e9)
	if !strings.HasSuffix(p.Key(), "|f2.5e+09") {
		t.Errorf("overridden-clock key %q lacks the frequency segment", p.Key())
	}
	if p.Frequency() != 2.5e9 {
		t.Errorf("Frequency() = %g, want 2.5e9", p.Frequency())
	}
	if Baseline().Frequency() != workload.DefaultFrequencyHz {
		t.Error("zero-valued FrequencyHz must mean the Table I default")
	}
}

func TestFrequencySpecRoundTrip(t *testing.T) {
	spec := PointSpec{Cell: "3T-eDRAM", TemperatureK: 77, FrequencyHz: 1e10}
	p, err := ParsePoint(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Label, "@10GHz") {
		t.Errorf("label %q should name the non-default clock", p.Label)
	}
	back := p.Spec()
	if back.FrequencyHz != 1e10 {
		t.Errorf("recovered spec frequency %g, want 1e10", back.FrequencyHz)
	}
	p2, err := ParsePoint(back)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Key() != p.Key() {
		t.Errorf("frequency round trip changed the key: %q vs %q", p2.Key(), p.Key())
	}
}

func TestGainCellParsePointRouting(t *testing.T) {
	p, err := ParsePoint(PointSpec{Cell: "OS-GC", Corner: "pessimistic", TemperatureK: 77, Style: "monolithic", Dies: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cell.Name != "osgc-pessimistic" {
		t.Errorf("parsed cell %q, want the pessimistic OSGC tentpole", p.Cell.Name)
	}
	if p.Style != stack.Monolithic {
		t.Errorf("style %v, want monolithic", p.Style)
	}
	gp, err := GainCellAt(cell.Optimistic, 77, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Cell.Name != "osgc-optimistic" || gp.Style != stack.Monolithic {
		t.Errorf("GainCellAt built %q/%v, want osgc-optimistic/monolithic", gp.Cell.Name, gp.Style)
	}
	if err := gp.Validate(); err != nil {
		t.Errorf("gain-cell point invalid: %v", err)
	}
}

func TestEvaluateScalesTrafficWithFrequency(t *testing.T) {
	e := New()
	tr, err := workload.StaticTrafficFor("namd")
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.EvaluateContext(context.Background(), Baseline(), tr)
	if err != nil {
		t.Fatal(err)
	}
	half, err := e.EvaluateContext(context.Background(), atClock(Baseline(), 2.5e9), tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := half.Traffic.ReadsPerSec, tr.ReadsPerSec/2; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("half-clock reads/s = %g, want %g", got, want)
	}
	// Dynamic power and aggregate latency scale with demand; leakage does
	// not, so total device power shrinks by less than 2x but must shrink.
	if half.DevicePower >= base.DevicePower {
		t.Errorf("half-clock device power %g >= full-clock %g", half.DevicePower, base.DevicePower)
	}
	if math.Abs(half.AggregateLatency-base.AggregateLatency/2)/base.AggregateLatency > 1e-12 {
		t.Errorf("aggregate latency did not halve: %g vs %g", half.AggregateLatency, base.AggregateLatency)
	}
	// Identity at the default clock: bit-for-bit.
	again, err := e.EvaluateContext(context.Background(), Baseline(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if again.Traffic != tr || again.DevicePower != base.DevicePower {
		t.Error("default-clock evaluation is not the exact identity")
	}
}
