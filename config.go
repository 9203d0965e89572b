package coldtall

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/workload"
)

// StudyConfig is the JSON schema of a user-defined study, mirroring
// NVMExplorer's config-file-driven flow: a set of design points (circuit
// and system choices) crossed with a set of workloads (application
// characteristics), evaluated under a cooling environment.
//
//	{
//	  "cooler": "100kW",
//	  "points": [
//	    {"label": "my cold cache", "technology": "3T-eDRAM", "temperature_k": 77},
//	    {"technology": "PCM", "corner": "optimistic", "dies": 8}
//	  ],
//	  "workloads": [
//	    {"benchmark": "mcf"},
//	    {"name": "my service", "reads_per_sec": 2e6, "writes_per_sec": 5e5},
//	    {"benchmark": "leela", "simulate": true}
//	  ]
//	}
type StudyConfig struct {
	// Cooler selects the cryocooler class ("100kW", "1kW", "100W",
	// "10W"); empty means the paper's default 100 kW.
	Cooler string `json:"cooler,omitempty"`
	// Points are the LLC design points to evaluate.
	Points []PointConfig `json:"points"`
	// Workloads are the traffic loads to evaluate them under.
	Workloads []WorkloadConfig `json:"workloads"`
}

// PointConfig describes one design point in JSON form.
type PointConfig struct {
	// Label is optional; a descriptive one is generated when empty.
	Label string `json:"label,omitempty"`
	// Technology is one of SRAM, 3T-eDRAM, 1T1C-eDRAM, PCM, STT-RAM,
	// RRAM, SOT-RAM.
	Technology string `json:"technology"`
	// Corner selects the eNVM tentpole ("optimistic"/"pessimistic");
	// ignored for the volatile technologies. Empty means optimistic.
	Corner string `json:"corner,omitempty"`
	// TemperatureK defaults to 350.
	TemperatureK float64 `json:"temperature_k,omitempty"`
	// Dies defaults to 1; Style to "tsv".
	Dies  int    `json:"dies,omitempty"`
	Style string `json:"style,omitempty"`
	// CapacityMiB overrides the 16 MiB LLC capacity.
	CapacityMiB int64 `json:"capacity_mib,omitempty"`
}

// WorkloadConfig describes one workload in JSON form: either a SPEC
// benchmark name (static rates, or simulated when Simulate is set) or
// custom rates.
type WorkloadConfig struct {
	// Benchmark names a SPEC stand-in; empty means custom rates.
	Benchmark string `json:"benchmark,omitempty"`
	// Simulate measures the benchmark through the cache simulator
	// instead of using the static table.
	Simulate bool `json:"simulate,omitempty"`
	// Name labels a custom workload.
	Name string `json:"name,omitempty"`
	// ReadsPerSec / WritesPerSec define custom LLC traffic.
	ReadsPerSec  float64 `json:"reads_per_sec,omitempty"`
	WritesPerSec float64 `json:"writes_per_sec,omitempty"`
}

// LoadStudyConfig parses and validates a JSON study description.
func LoadStudyConfig(r io.Reader) (StudyConfig, error) {
	var cfg StudyConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return StudyConfig{}, fmt.Errorf("coldtall: parsing study config: %w", err)
	}
	if len(cfg.Points) == 0 {
		return StudyConfig{}, fmt.Errorf("coldtall: study config needs at least one point")
	}
	if len(cfg.Workloads) == 0 {
		return StudyConfig{}, fmt.Errorf("coldtall: study config needs at least one workload")
	}
	return cfg, nil
}

// point lowers a PointConfig into the PointSpec the CLI and the HTTP API
// share and resolves it through explorer.ParsePoint, which owns the
// technology, corner and style names and the defaults; a set Label
// replaces the generated one.
func (pc PointConfig) point() (explorer.DesignPoint, error) {
	spec := explorer.PointSpec{
		Cell:         pc.Technology,
		Corner:       pc.Corner,
		Dies:         pc.Dies,
		TemperatureK: pc.TemperatureK,
		Style:        pc.Style,
	}
	if pc.CapacityMiB > 0 {
		spec.CapacityBytes = pc.CapacityMiB << 20
	}
	p, err := explorer.ParsePoint(spec)
	if err != nil {
		return explorer.DesignPoint{}, err
	}
	if pc.Label != "" {
		p.Label = pc.Label
	}
	return p, nil
}

// traffic lowers a WorkloadConfig into traffic rates; ctx stops a
// simulated measurement.
func (wc WorkloadConfig) traffic(ctx context.Context) (workload.Traffic, error) {
	if wc.Benchmark != "" {
		if wc.Simulate {
			p, err := workload.ProfileByName(wc.Benchmark)
			if err != nil {
				return workload.Traffic{}, err
			}
			w, err := workload.Window(ctx, p)
			return w.Traffic, err
		}
		return workload.StaticTrafficFor(wc.Benchmark)
	}
	if wc.ReadsPerSec <= 0 && wc.WritesPerSec <= 0 {
		return workload.Traffic{}, fmt.Errorf("coldtall: workload needs a benchmark or positive rates")
	}
	name := wc.Name
	if name == "" {
		name = "custom"
	}
	tr := workload.Traffic{Benchmark: name, ReadsPerSec: wc.ReadsPerSec, WritesPerSec: wc.WritesPerSec}
	return tr, tr.Validate()
}

// RunConfig evaluates a study config: every point under every workload,
// normalized to the paper's baseline, exactly like the built-in figures.
// It runs on the receiver's explorer (sharing its characterization cache
// and workers) and under its context, in the config's cooling
// environment: the named cooler class, or the paper's 100 kW default.
func (s *Study) RunConfig(cfg StudyConfig) ([]TrafficRow, error) {
	cooling := cryo.DefaultCooling()
	if cfg.Cooler != "" {
		cls, err := cryo.ParseClass(cfg.Cooler)
		if err != nil {
			return nil, err
		}
		cooling.Class = cls
	}
	sub, err := s.withCooling(cooling)
	if err != nil {
		return nil, err
	}
	points := make([]explorer.DesignPoint, len(cfg.Points))
	for i, pc := range cfg.Points {
		if points[i], err = pc.point(); err != nil {
			return nil, err
		}
	}
	traffics := make([]workload.Traffic, len(cfg.Workloads))
	for j, wc := range cfg.Workloads {
		if traffics[j], err = wc.traffic(s.context()); err != nil {
			return nil, err
		}
	}
	return sub.trafficStudyFor(points, traffics)
}

// RunConfigAndRender evaluates a study config (see RunConfig) and prints
// the result table.
func (s *Study) RunConfigAndRender(r io.Reader, w io.Writer) error {
	cfg, err := LoadStudyConfig(r)
	if err != nil {
		return err
	}
	rows, err := s.RunConfig(cfg)
	if err != nil {
		return err
	}
	// Custom studies share the registry's traffic schema, so they render
	// (and could export) exactly like Fig. 5 / Fig. 7.
	t := report.NewSchemaTable("Custom study (relative to 350K 1-die SRAM on namd)", trafficColumns)
	if err := buildTraffic(t, rows); err != nil {
		return err
	}
	return t.Render(w)
}
