package workload

// Calibration-drift golden test: the simulated traffic table that
// `coldtall traffic` prints — every benchmark stand-in's built-in window
// (Window: WindowAccesses accesses from a fixed seed through
// sim.Replayer.Window, whose first quarter warms the caches) extrapolated
// through the shared formula — is pinned byte for byte against the static
// (Sniper-substitute) table under testdata/golden/. Any change to the
// profiles, the cache hierarchy, the window, the generators, or the
// extrapolation constants shows up here as a byte diff, not as a silently
// shifted figure.
//
// The window is big enough that high-traffic benchmarks see thousands of
// LLC events. Only the read columns carry signal. Dirty lines have not yet
// started to leave the L2 in a window this short, so
// simulated_writes_per_sec is 0 for 22 of the 23 profiles; mcf is the one
// non-zero row.
//
// Refresh after an intentional model change with:
//
//	go test ./internal/workload -run CalibrationGolden -update

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateCalibration = flag.Bool("update", false, "rewrite the calibration golden snapshot")

// calibrationCSV renders the drift table in canonical benchmark order.
func calibrationCSV(rows []Traffic) (string, error) {
	var b strings.Builder
	b.WriteString("benchmark,static_reads_per_sec,simulated_reads_per_sec,read_ratio,static_writes_per_sec,simulated_writes_per_sec\n")
	for _, m := range rows {
		st, err := StaticTrafficFor(m.Benchmark)
		if err != nil {
			return "", err
		}
		ratio := 0.0
		if st.ReadsPerSec > 0 {
			ratio = m.ReadsPerSec / st.ReadsPerSec
		}
		fmt.Fprintf(&b, "%s,%.6g,%.6g,%.4f,%.6g,%.6g\n",
			m.Benchmark, st.ReadsPerSec, m.ReadsPerSec, ratio, st.WritesPerSec, m.WritesPerSec)
	}
	return b.String(), nil
}

func TestCalibrationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite simulation")
	}
	rows, err := MeasureAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := calibrationCSV(rows)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "calibration.csv")
	if *updateCalibration {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d benchmarks)", path, len(rows))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing calibration golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("simulated traffic table drifted from the golden snapshot "+
			"(%d bytes vs %d); diff %s and rerun with -update if the model change is intentional",
			len(got), len(want), path)
	}
}
