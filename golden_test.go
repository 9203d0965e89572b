package coldtall

// Golden regression harness: the CSV artifacts of Fig. 1–7 and Tables I–II
// are pinned byte for byte under testdata/golden/. The harness asserts two
// properties at once:
//
//  1. Regression: a serial study reproduces the committed snapshots, so any
//     change to the model's numbers is a visible diff, not a silent drift.
//  2. Determinism: a parallel study (forced worker pool, even on one CPU)
//     produces byte-identical artifacts — the worker pool may change
//     wall-clock time, never output.
//
// Refresh the snapshots after an intentional model change with
//
//	go test -run Golden -update
//
// and review the CSV diff like any other code change.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden CSV snapshots")

// goldenNames are the artifacts pinned under testdata/golden — derived
// from the registry, so a new descriptor is golden-covered automatically
// (its first run fails with "missing golden", prompting an -update).
var goldenNames = func() map[string]bool {
	names := make(map[string]bool)
	for _, d := range Artifacts().Descriptors() {
		names[d.File] = true
	}
	return names
}()

// buildArtifacts renders every golden-pinned CSV from one study through the
// registry — the same path Export, the CLI and the HTTP server use.
func buildArtifacts(t *testing.T, s *Study) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, d := range Artifacts().Descriptors() {
		if !goldenNames[d.File] {
			continue
		}
		var buf bytes.Buffer
		if err := s.RenderArtifactCSV(&buf, d.Name); err != nil {
			t.Fatalf("building %s: %v", d.Name, err)
		}
		out[d.File] = buf.Bytes()
	}
	return out
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name) }

func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}

	serial := NewStudy()
	serial.SetParallelism(1)
	got := buildArtifacts(t, serial)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(goldenPath(name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden snapshots", len(got))
	}

	for name, data := range got {
		want, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatalf("missing golden for %s (regenerate with -update): %v", name, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s drifted from golden snapshot (%d bytes vs %d); diff the CSVs and run with -update if intentional",
				name, len(data), len(want))
		}
	}
}

// TestExportParallelism is the determinism contract of the sweep engine: a
// full Export with a forced multi-worker pool (8 workers rather than
// GOMAXPROCS, so the concurrent paths execute even on a 1-CPU runner) is
// byte-identical to the serial Export, and the golden subset matches the
// committed snapshots. A divergence here means an ordering or dedup bug in
// the worker pool, not a model change.
func TestExportParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full exports in -short mode")
	}

	dirSer := t.TempDir()
	ser := NewStudy()
	ser.SetParallelism(1)
	if err := ser.Export(dirSer); err != nil {
		t.Fatal(err)
	}

	dirPar := t.TempDir()
	par := NewStudy()
	par.SetParallelism(8)
	if err := par.Export(dirPar); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dirSer)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("serial export wrote nothing")
	}
	for _, e := range entries {
		s, err := os.ReadFile(filepath.Join(dirSer, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		p, err := os.ReadFile(filepath.Join(dirPar, e.Name()))
		if err != nil {
			t.Fatalf("parallel export missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(s, p) {
			t.Errorf("%s: serial and parallel Export differ", e.Name())
		}
		if goldenNames[e.Name()] {
			want, err := os.ReadFile(goldenPath(e.Name()))
			if err != nil {
				t.Fatalf("missing golden for %s: %v", e.Name(), err)
			}
			if !bytes.Equal(s, want) {
				t.Errorf("%s: exported file drifted from golden snapshot", e.Name())
			}
		}
	}
	if got := fmt.Sprintf("%d", len(entries)); got != "15" {
		t.Errorf("export wrote %s files, want 15", got)
	}
}

// seedArtifacts are the 11 artifact files that existed before the
// technology-backend extension (gaincell/deepcryo/freqsweep). The
// extension's contract is differential: these must stay byte-identical —
// every new physics path (sub-77 K plateau, Arrhenius retention, frequency
// scaling) activates only on axes no seed artifact exercises.
var seedArtifacts = []string{
	"fig1.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv",
	"table1.csv", "table2.csv", "cooling.csv", "coldtall.csv", "reliability.csv",
}

// TestSeedArtifactsByteIdentical pins the differential contract by name:
// all 11 pre-extension artifacts are still registered, still golden-pinned,
// and a fresh serial study reproduces their committed bytes exactly.
func TestSeedArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	for _, name := range seedArtifacts {
		if !goldenNames[name] {
			t.Fatalf("seed artifact %s vanished from the registry", name)
		}
	}
	s := NewStudy()
	s.SetParallelism(1)
	got := buildArtifacts(t, s)
	for _, name := range seedArtifacts {
		want, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatalf("missing golden for seed artifact %s: %v", name, err)
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("seed artifact %s changed — the extension must be differential-silent on pre-existing outputs", name)
		}
	}
}
