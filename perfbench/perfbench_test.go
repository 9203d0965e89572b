package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMinimalRuns runs every workload for one second, untraced and traced,
// and checks that each run passes its correctness gates and emits exactly
// the metrics BENCHMARK.json names, finite and with their declared units.
func TestMinimalRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds coldtall and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := func(name, pkg, wd string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Dir = wd
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
		return out
	}
	coldtallBin := bin("coldtall", "./cmd/coldtall", "..")
	self := bin("perfbench", ".", ".")
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
				if w.Name != spec.Workloads[0].Name {
					continue // every traced run covers all layers; one is enough
				}
			}
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				cmd := exec.Command(self, "-root", root, "-coldtall", coldtallBin, "-work", t.TempDir(),
					"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", traced)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v, not finite", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "serve.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.hit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "server.hit", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "server.miss", Start: 90, End: 120},
	}
	self := tr.selfTimes()
	// serve.op: 100 ns minus the union [10,60] and [90,100] = 40 ns.
	if got := self["serve"] * 1e6; math.Abs(got-40) > 1e-9 {
		t.Errorf("serve self time %v ns, want 40", got)
	}
	if got := self["server"] * 1e6; math.Abs(got-90) > 1e-9 {
		t.Errorf("server self time %v ns, want 90", got)
	}
}

func TestWindowedFixesPercentile(t *testing.T) {
	lat := make([]float64, 200)
	for i := range lat {
		lat[i] = float64(i % 100) // each window holds 0..99
	}
	p50, tail, p50s, tails := windowedN(lat, 100, tailQuantile)
	if len(p50s) != 2 || len(tails) != 2 {
		t.Fatalf("%d windows, want 2", len(p50s))
	}
	if math.Abs(p50-49.5) > 1e-9 || math.Abs(tail-89.1) > 1e-9 {
		t.Errorf("p50 %v, p90 %v; want 49.5 and 89.1", p50, tail)
	}
}
