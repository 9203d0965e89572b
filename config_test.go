package coldtall

import (
	"context"
	"errors"
	"strings"
	"testing"
)

const sampleConfig = `{
  "cooler": "1kW",
  "points": [
    {"label": "cold gain cell", "technology": "3T-eDRAM", "temperature_k": 77},
    {"technology": "PCM", "corner": "pessimistic", "dies": 4},
    {"technology": "SRAM", "capacity_mib": 8}
  ],
  "workloads": [
    {"benchmark": "leela"},
    {"name": "svc", "reads_per_sec": 1e6, "writes_per_sec": 2e5}
  ]
}`

func TestLoadStudyConfig(t *testing.T) {
	cfg, err := LoadStudyConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cooler != "1kW" || len(cfg.Points) != 3 || len(cfg.Workloads) != 2 {
		t.Errorf("unexpected config %+v", cfg)
	}
}

func TestLoadStudyConfigRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"points": [`,
		"unknown field": `{"points": [{"technology":"SRAM"}], "workloads": [{"benchmark":"mcf"}], "wat": 1}`,
		"no points":     `{"workloads": [{"benchmark":"mcf"}]}`,
		"no workloads":  `{"points": [{"technology":"SRAM"}]}`,
	}
	for name, in := range cases {
		if _, err := LoadStudyConfig(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunConfigEvaluatesGrid(t *testing.T) {
	cfg, err := LoadStudyConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := NewStudy().RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 3 points x 2 workloads", len(rows))
	}
	byLabel := map[string]bool{}
	for _, r := range rows {
		byLabel[r.Label] = true
		if r.RelTotalPower <= 0 || r.RelLatency <= 0 {
			t.Errorf("%s/%s: non-positive relatives", r.Label, r.Benchmark)
		}
	}
	if !byLabel["cold gain cell"] {
		t.Error("custom label not preserved")
	}
	// The cold gain cell under the 1kW cooler still wins leela by a wide
	// margin.
	for _, r := range rows {
		if r.Label == "cold gain cell" && r.Benchmark == "leela" && r.RelTotalPower > 0.01 {
			t.Errorf("cold gain cell rel power %.4g, want << 1", r.RelTotalPower)
		}
	}
}

func TestRunConfigRejectsBadPoints(t *testing.T) {
	bad := []StudyConfig{
		{Points: []PointConfig{{Technology: "FLUX"}}, Workloads: []WorkloadConfig{{Benchmark: "mcf"}}},
		{Points: []PointConfig{{Technology: "PCM", Corner: "median"}}, Workloads: []WorkloadConfig{{Benchmark: "mcf"}}},
		{Points: []PointConfig{{Technology: "SRAM", Dies: 3}}, Workloads: []WorkloadConfig{{Benchmark: "mcf"}}},
		{Points: []PointConfig{{Technology: "SRAM", Style: "origami"}}, Workloads: []WorkloadConfig{{Benchmark: "mcf"}}},
		{Points: []PointConfig{{Technology: "SRAM"}}, Workloads: []WorkloadConfig{{Benchmark: "doom"}}},
		{Points: []PointConfig{{Technology: "SRAM"}}, Workloads: []WorkloadConfig{{Name: "x"}}},
		{Cooler: "5W", Points: []PointConfig{{Technology: "SRAM"}}, Workloads: []WorkloadConfig{{Benchmark: "mcf"}}},
	}
	for i, cfg := range bad {
		if _, err := NewStudy().RunConfig(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunConfigSimulatedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed workload")
	}
	cfg := StudyConfig{
		Points:    []PointConfig{{Technology: "SRAM"}},
		Workloads: []WorkloadConfig{{Benchmark: "namd", Simulate: true}},
	}
	rows, err := NewStudy().RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].ReadsPerSec <= 0 {
		t.Fatalf("simulated workload produced %+v", rows)
	}
}

func TestRunConfigAndRender(t *testing.T) {
	var b strings.Builder
	if err := NewStudy().RunConfigAndRender(strings.NewReader(sampleConfig), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Custom study") || !strings.Contains(b.String(), "cold gain cell") {
		t.Error("render output incomplete")
	}
}

func TestDefaultsInPointConfig(t *testing.T) {
	p, err := PointConfig{Technology: "STT-RAM"}.point()
	if err != nil {
		t.Fatal(err)
	}
	if p.Temperature != 350 || p.Dies != 1 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if !strings.Contains(p.Label, "stt-optimistic") {
		t.Errorf("generated label %q should name the tentpole cell", p.Label)
	}
}

// TestRunConfigHonoursStudyContext: a config runs on the caller's explorer
// under the caller's context, so a cancelled study fails with
// context.Canceled before any organization search, and a live one fills
// the caller's characterization cache.
func TestRunConfigHonoursStudyContext(t *testing.T) {
	cfg, err := LoadStudyConfig(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.WithContext(ctx).RunConfig(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunConfig: err = %v, want context.Canceled", err)
	}
	if n := s.Explorer().OptimizeCalls(); n != 0 {
		t.Errorf("cancelled RunConfig ran %d optimizer searches, want 0", n)
	}
	if _, err := s.RunConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if s.Explorer().OptimizeCalls() == 0 {
		t.Error("RunConfig did not characterize through the study's explorer")
	}
}
