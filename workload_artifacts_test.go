package coldtall

import (
	"bytes"
	"strings"
	"testing"

	"coldtall/internal/report"
	"coldtall/internal/workload"
)

// TestWorkloadArtifactMatchesFullArtifact pins the restriction property:
// rendering fig5 for one static benchmark must produce exactly that
// benchmark's rows from the full artifact, same schema, same formatting.
func TestWorkloadArtifactMatchesFullArtifact(t *testing.T) {
	s := NewStudy()
	const bench = "leela"

	restricted, err := s.WorkloadArtifactTable("fig5", bench)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Artifacts().Lookup("fig5")
	want := report.NewSchemaTable(restricted.Title, d.Columns)
	var filtered []TrafficRow
	for _, r := range full {
		if r.Benchmark == bench {
			filtered = append(filtered, r)
		}
	}
	if len(filtered) == 0 {
		t.Fatal("full fig5 has no leela rows")
	}
	if err := buildTraffic(want, filtered); err != nil {
		t.Fatal(err)
	}

	var got, exp bytes.Buffer
	if err := restricted.RenderCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.RenderCSV(&exp); err != nil {
		t.Fatal(err)
	}
	if got.String() != exp.String() {
		t.Fatalf("restricted fig5 differs from filtered full fig5:\n--- got\n%s--- want\n%s", got.String(), exp.String())
	}
}

// TestWorkloadArtifactCustomWorkload exercises the ingested-workload
// path: a registry entry that exists nowhere in the static table renders
// both a scatter artifact and the cold-and-tall study.
func TestWorkloadArtifactCustomWorkload(t *testing.T) {
	s := NewStudy()
	reg := s.Workloads()
	mcf, _ := workload.StaticTrafficFor("mcf")
	src := workload.Source{
		Name: "custom1",
		Kind: workload.SourceTrace,
		Traffic: workload.Traffic{
			Benchmark:    "custom1",
			ReadsPerSec:  mcf.ReadsPerSec * 0.5,
			WritesPerSec: mcf.WritesPerSec * 2,
		},
		Accesses:    100000,
		TraceSHA256: "cafe",
	}
	if err := reg.Add(src); err != nil {
		t.Fatal(err)
	}

	tab, err := s.WorkloadArtifactTable("fig5", "custom1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("fig5 for one workload = %d CSV lines, want header + 4 design points:\n%s", len(lines), buf.String())
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, "custom1") {
			t.Fatalf("row does not carry the workload name: %q", line)
		}
	}

	coldtall, err := s.WorkloadArtifactTable("coldtall", "custom1")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := coldtall.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "custom1"); n == 0 {
		t.Fatal("coldtall rows do not reference the custom workload")
	}
}

func TestWorkloadArtifactErrors(t *testing.T) {
	s := NewStudy()
	if _, err := s.WorkloadArtifactTable("fig1", "mcf"); err == nil {
		t.Fatal("fig1 is workload-independent; want an error")
	}
	if _, err := s.WorkloadArtifactTable("nope", "mcf"); err == nil {
		t.Fatal("want unknown-artifact error")
	}
	if _, err := s.WorkloadArtifactTable("fig5", "no-such-workload"); err == nil {
		t.Fatal("want unknown-workload error")
	}
	if !IsTrafficArtifact("fig5") || IsTrafficArtifact("table2") {
		t.Fatal("IsTrafficArtifact misclassifies")
	}
}
