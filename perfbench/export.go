package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"coldtall"
)

// loadGoldens reads every CSV under testdata/golden, keyed by file name.
func loadGoldens(root string) (map[string][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "golden", "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden CSVs under %s", root)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out[filepath.Base(p)] = b
	}
	return out, nil
}

// compareExport checks that dir holds exactly the golden file set, byte
// for byte.
func compareExport(dir string, goldens map[string][]byte) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(entries) != len(goldens) {
		return fmt.Errorf("export wrote %d files, want %d", len(entries), len(goldens))
	}
	for name, want := range goldens {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s differs from testdata/golden", name)
		}
	}
	return nil
}

// childRun is one finished coldtall child: wall time, CPU time (all
// threads, user plus system) and peak RSS.
type childRun struct {
	wall, cpu time.Duration
	rssMB     float64
}

// runChild runs the coldtall binary to completion.
func runChild(ctx context.Context, bin string, args ...string) (childRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childRun{wall: wall}, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return childRun{wall, childCPU(cmd.ProcessState), childPeakRSSMB(cmd.ProcessState)}, nil
}

// runExport is the paper_export workload: `coldtall export` into a fresh
// directory, one new process per export so the process-global search memo
// starts cold every time, each output compared with the goldens. Set-up is
// the CLI's fixed start cost (process start, study construction, registry):
// one `coldtall artifacts list` run before each export, its CPU time
// reported as the median over the run. Each CPU time is scaled to the
// reference host speed by a calibration just before it (calib.go). The workload has no random input:
// the paper grid is fixed, and the seed only names the output directories.
func runExport(ctx context.Context, e *env, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	goldens, err := loadGoldens(e.root)
	if err != nil {
		return nil, err
	}
	var walls, rss []float64
	var setups, cpus series
	var setupTotal time.Duration
	var cal calibrator
	deadline := time.Now().Add(budget)
	start := time.Now()
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		at := cal.run()
		setup, err := runChild(ctx, e.coldtall, "artifacts", "list")
		if err != nil {
			return nil, err
		}
		setups.add(setup.cpu.Seconds(), at)
		setupTotal += setup.wall
		dir := filepath.Join(e.tmp, fmt.Sprintf("export-s%d-%d", e.seed, i))
		op := tr.op()
		t0 := time.Now()
		run, err := runChild(ctx, e.coldtall, "export", "-dir", dir)
		tr.record("export.run", op, 0, t0, time.Now())
		out.attempted++
		if err != nil {
			out.fail("export %d: %v", i, err)
		} else if err := compareExport(dir, goldens); err != nil {
			out.fail("export %d: %v", i, err)
		} else {
			walls = append(walls, ms(run.wall))
			cpus.add(ms(run.cpu), at)
			rss = append(rss, run.rssMB)
		}
		os.RemoveAll(dir)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	elapsed := (time.Since(start) - setupTotal).Seconds()
	if len(walls) == 0 {
		walls, rss = []float64{math.NaN()}, []float64{math.NaN()}
		cpus.add(math.NaN(), 0)
	}
	refCPU, refSetup := cal.scaled(&cpus), cal.scaled(&setups)
	out.set("setup_s", median(refSetup), "s")
	out.set("peak_rss_mb", median(rss), "MB")
	out.set("ref_cpu_ms_per_op", median(refCPU), "ms")
	out.named["setup_ref_cpu_samples_s"] = refSetup
	out.named["ref_cpu_p90_ms"] = quantile(refCPU, tailQuantile)
	out.named["raw_cpu_ms_per_op"] = median(cpus.raw)
	cal.record(out)
	out.named["op_p50_ms"] = median(walls)
	out.named["op_tail_ms"] = quantile(walls, tailQuantile)
	out.named["throughput_per_s"] = float64(len(walls)*len(goldens)) / elapsed
	out.named["export_s"] = median(walls) / 1e3
	out.named["exports"] = len(walls)
	out.named["tail_quantile"] = tailQuantile
	out.named["artifacts_per_export"] = len(goldens)
	if tr != nil {
		if err := traceArtifacts(ctx, e, tr, out, goldens); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// artifactChildArg re-executes this binary as a fresh process that builds
// every registry artifact in paper order: the process-global search memo
// and the explorer cache start cold, exactly as in `coldtall export`.
const artifactChildArg = "artifact-child"

// childSpan is one artifact build reported by the child, in Unix
// nanoseconds so the parent can place it on its own timeline.
type childSpan struct {
	Name          string `json:"name"`
	Start         int64  `json:"start_unix_ns"`
	End           int64  `json:"end_unix_ns"`
	OptimizeCalls int64  `json:"optimize_calls"`
	CSV           []byte `json:"csv"`
}

func artifactChild(args []string) int {
	study := coldtall.NewStudy()
	var spans []childSpan
	for _, name := range coldtall.Artifacts().Names() {
		before := study.Explorer().OptimizeCalls()
		start := time.Now()
		t, err := study.ArtifactTable(name)
		end := time.Now()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		var b bytes.Buffer
		if err := t.RenderCSV(&b); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		spans = append(spans, childSpan{name, start.UnixNano(), end.UnixNano(),
			study.Explorer().OptimizeCalls() - before, b.Bytes()})
	}
	if err := json.NewEncoder(os.Stdout).Encode(spans); err != nil {
		return 1
	}
	return 0
}

// traceArtifacts runs the fresh-process artifact builds and records one
// span per artifact under an export.artifacts root, plus the optimize call
// count of a cold paper grid.
func traceArtifacts(ctx context.Context, e *env, tr *tracer, out *outcome, goldens map[string][]byte) error {
	op := tr.op()
	root := tr.reserve()
	start := time.Now()
	cmd := exec.CommandContext(ctx, e.self, artifactChildArg)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	tr.finish(root, "export.artifacts", op, 0, start, time.Now())
	out.attempted++
	if runErr != nil {
		out.fail("artifact child: %v: %s", runErr, stderr.String())
		return nil
	}
	var spans []childSpan
	if err := json.Unmarshal(stdout.Bytes(), &spans); err != nil {
		return fmt.Errorf("artifact child output: %w", err)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		tr.record("artifact.build", op, root, time.Unix(0, s.Start), time.Unix(0, s.End))
		tr.count("array.optimize_calls", float64(s.OptimizeCalls))
		out.set("artifact.build_ms."+s.Name, float64(s.End-s.Start)/1e6, "ms")
		d, ok := coldtall.Artifacts().Lookup(s.Name)
		if !ok || !bytes.Equal(s.CSV, goldens[d.File]) {
			out.fail("artifact %s built in a fresh process differs from testdata/golden", s.Name)
		}
	}
	out.set("array.optimize_calls", tr.counter("array.optimize_calls"), "count")
	return nil
}
