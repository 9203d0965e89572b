package coldtall

// Per-workload artifact rendering: the traffic-dependent artifacts
// restricted to a single (possibly ingested) workload. This is the
// surface that closes the ingestion loop — a custom trace uploaded to the
// server comes back out as the same Fig. 5 / Fig. 7 / cold-and-tall rows
// the static SPEC suite gets, rendered from the same descriptors with the
// same schemas.

import (
	"fmt"

	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/workload"
)

// TrafficArtifactNames lists the artifacts that can be rendered for a
// single workload: those whose rows are per-benchmark functions of LLC
// traffic. Array-characterization artifacts (fig1, fig3, fig6, ...) are
// workload-independent and stay registry-only.
func TrafficArtifactNames() []string { return []string{"fig5", "fig7", "coldtall"} }

// IsTrafficArtifact reports whether name (registry name, not file name)
// renders per-workload.
func IsTrafficArtifact(name string) bool {
	for _, n := range TrafficArtifactNames() {
		if n == name {
			return true
		}
	}
	return false
}

// WorkloadArtifactTable builds one traffic-dependent artifact restricted
// to a single workload, resolved through the study's registry (so both
// static SPEC names and ingested workloads work). The schema is the
// registry descriptor's; only the row set differs — for a static
// benchmark the rows are byte-identical to that benchmark's rows in the
// full artifact.
func (s *Study) WorkloadArtifactTable(artifactName, workloadName string) (*report.Table, error) {
	d, ok := Artifacts().Lookup(artifactName)
	if !ok || !IsTrafficArtifact(d.Name) {
		return nil, fmt.Errorf("coldtall: %q is not a per-workload artifact (want one of %v)", artifactName, TrafficArtifactNames())
	}
	tr, err := s.workloads.Traffic(workloadName)
	if err != nil {
		return nil, err
	}
	t := report.NewSchemaTable(fmt.Sprintf("%s [workload: %s]", d.Title, workloadName), d.Columns)
	switch d.Name {
	case "fig5", "fig7":
		points := fig5Points()
		if d.Name == "fig7" {
			if points, err = explorer.ENVMSweep(); err != nil {
				return nil, err
			}
		}
		rows, err := s.trafficStudyFor(points, []workload.Traffic{tr})
		if err != nil {
			return nil, err
		}
		if err := buildTraffic(t, rows); err != nil {
			return nil, err
		}
	case "coldtall":
		rows, err := s.ColdAndTall(workloadName)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := t.Append(r.Benchmark, r.Label, r.Cell, r.Dies,
				r.TemperatureK, r.RelTotalPower, r.RelLatency, r.RelArea); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
