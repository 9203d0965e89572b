package job

import (
	"bytes"
	"encoding/json"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
)

// The wire format of every job kind the synchronous API also serves. The
// /v1/characterize, /v1/evaluate, /v1/sweep and artifact CSV routes encode
// their bodies with the functions below, and so do the matching job
// results, so the two surfaces are byte-identical by construction. +Inf
// (the model's "does not apply" value) encodes as JSON null through
// report.FiniteOrNull.

// characterization is the wire form of an array characterization.
type characterization struct {
	Point                 string   `json:"point"`
	Key                   string   `json:"key"`
	Organization          string   `json:"organization"`
	ReadLatencyS          float64  `json:"read_latency_s"`
	WriteLatencyS         float64  `json:"write_latency_s"`
	RandomCycleS          float64  `json:"random_cycle_s"`
	ReadEnergyJ           float64  `json:"read_energy_j"`
	WriteEnergyJ          float64  `json:"write_energy_j"`
	LeakageW              float64  `json:"leakage_w"`
	RefreshW              float64  `json:"refresh_w"`
	RetentionS            *float64 `json:"retention_s"` // null when static
	FootprintM2           float64  `json:"footprint_m2"`
	TotalSiliconM2        float64  `json:"total_silicon_m2"`
	ArrayEfficiency       float64  `json:"array_efficiency"`
	BandwidthAccessesPerS float64  `json:"bandwidth_accesses_per_s"`
}

// evaluation is the wire form of one (point, benchmark) evaluation: the
// evaluate body and one row of a sweep.
type evaluation struct {
	Point            string   `json:"point"`
	Benchmark        string   `json:"benchmark"`
	ReadsPerSec      float64  `json:"reads_per_sec"`
	WritesPerSec     float64  `json:"writes_per_sec"`
	DevicePowerW     float64  `json:"device_power_w"`
	CoolingPowerW    float64  `json:"cooling_power_w"`
	TotalPowerW      float64  `json:"total_power_w"`
	AggregateLatency float64  `json:"aggregate_latency"`
	Utilization      float64  `json:"utilization"`
	ContentionFactor float64  `json:"contention_factor"`
	Slowdown         bool     `json:"slowdown"`
	LifetimeYears    *float64 `json:"lifetime_years"` // null when unbounded
}

// sweepResult is the evaluated grid in row-major (point, benchmark) order.
type sweepResult struct {
	Points     int          `json:"points"`
	Benchmarks int          `json:"benchmarks"`
	Rows       []evaluation `json:"rows"`
}

// CharacterizeJSON encodes one design point's characterization.
func CharacterizeJSON(p explorer.DesignPoint, r array.Result) ([]byte, error) {
	return json.Marshal(characterization{
		Point:                 p.Label,
		Key:                   p.Key(),
		Organization:          r.Org.String(),
		ReadLatencyS:          r.ReadLatency,
		WriteLatencyS:         r.WriteLatency,
		RandomCycleS:          r.RandomCycle,
		ReadEnergyJ:           r.ReadEnergy,
		WriteEnergyJ:          r.WriteEnergy,
		LeakageW:              r.LeakagePower,
		RefreshW:              r.RefreshPower,
		RetentionS:            report.FiniteOrNull(r.Retention),
		FootprintM2:           r.FootprintM2,
		TotalSiliconM2:        r.TotalSiliconM2,
		ArrayEfficiency:       r.ArrayEfficiency,
		BandwidthAccessesPerS: r.BandwidthAccesses,
	})
}

func newEvaluation(ev explorer.Evaluation) evaluation {
	return evaluation{
		Point:            ev.Point.Label,
		Benchmark:        ev.Traffic.Benchmark,
		ReadsPerSec:      ev.Traffic.ReadsPerSec,
		WritesPerSec:     ev.Traffic.WritesPerSec,
		DevicePowerW:     ev.DevicePower,
		CoolingPowerW:    ev.CoolingPower,
		TotalPowerW:      ev.TotalPower,
		AggregateLatency: ev.AggregateLatency,
		Utilization:      ev.Utilization,
		ContentionFactor: ev.ContentionFactor,
		Slowdown:         ev.Slowdown,
		LifetimeYears:    report.FiniteOrNull(ev.LifetimeYears),
	}
}

// EvaluateJSON encodes one (point, benchmark) evaluation.
func EvaluateJSON(ev explorer.Evaluation) ([]byte, error) {
	return json.Marshal(newEvaluation(ev))
}

// SweepJSON encodes a points x benchmarks grid, indexed [point][benchmark]
// as explorer.EvaluateAllContext returns it, in row-major order.
func SweepJSON(grid [][]explorer.Evaluation) ([]byte, error) {
	res := sweepResult{Points: len(grid), Rows: []evaluation{}}
	for _, row := range grid {
		res.Benchmarks = len(row)
		for _, ev := range row {
			res.Rows = append(res.Rows, newEvaluation(ev))
		}
	}
	return json.Marshal(res)
}

// ArtifactCSV renders a registry artifact as CSV, restricted to one
// workload (static or ingested) when workload is non-empty.
func ArtifactCSV(st *coldtall.Study, artifact, workload string) ([]byte, error) {
	var t *report.Table
	var err error
	if workload == "" {
		t, err = st.ArtifactTable(artifact)
	} else {
		t, err = st.WorkloadArtifactTable(artifact, workload)
	}
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := t.RenderCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
