// Command perfbench is coldtall's benchmark. It runs one seeded workload
// against the built coldtall binary and the module's public package APIs,
// checks every output for correctness, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve_mix --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics of the chosen
// workload; with --trace 1 a traced pass over every layer records spans and
// counters around the calls into each module and reports the per-layer
// metrics instead. README.md in this directory explains the workloads and
// the layer-to-metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload needs: where the sources and binaries
// live, the seed, and a private scratch directory.
type env struct {
	root     string // checkout root (goldens under testdata/golden)
	coldtall string // built coldtall binary
	self     string // this binary, re-executed for fresh-process layer probes
	tmp      string // scratch directory, removed at exit
	seed     int64
	probes   probeInputs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's tally: operations attempted and failed (failed,
// refused or wrong-output), the reported metrics, and named figures that
// go to the result file only.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	named             map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, named: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// fail counts one failed operation and keeps its reason (the first few).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// merge adds another drive's tally (metrics are not merged).
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, s := range p.problems {
		if len(o.problems) < 20 {
			o.problems = append(o.problems, s)
		}
	}
}

// drive runs one workload for budget, recording spans on tr when non-nil,
// and returns its tally with the end-to-end metrics set.
type drive func(ctx context.Context, e *env, budget time.Duration, tr *tracer) (*outcome, error)

var workloads = map[string]drive{
	"paper_export":  runExport,
	"serve_mix":     runServe,
	"ingest_replay": runIngest,
}

// workloadOrder fixes the order of the traced pass.
var workloadOrder = []string{"paper_export", "serve_mix", "ingest_replay"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == artifactChildArg {
		os.Exit(artifactChild(os.Args[2:]))
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "paper_export, serve_mix or ingest_replay")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured duration")
	traced := fs.Int("trace", 0, "1 = traced per-layer run")
	root := fs.String("root", ".", "checkout root")
	coldtallBin := fs.String("coldtall", "", "built coldtall binary")
	work := fs.String("work", ".bench_build", "directory for results and scratch files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if _, ok := workloads[*wl]; !ok {
		return fmt.Errorf("unknown workload %q (want paper_export, serve_mix or ingest_replay)", *wl)
	}
	if *coldtallBin == "" || *seconds <= 0 {
		return fmt.Errorf("-coldtall and a positive --seconds are required")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(absRoot, "testdata", "golden", "table2.csv")); err != nil {
		return fmt.Errorf("goldens missing under %s: %w", absRoot, err)
	}
	resultsDir := filepath.Join(*work, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	absTmp, err := filepath.Abs(tmp)
	if err != nil {
		return err
	}
	e := &env{root: absRoot, coldtall: *coldtallBin, self: self, tmp: absTmp, seed: *seed}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	budget := time.Duration(*seconds * float64(time.Second))
	var out *outcome
	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
		out, err = runTraced(ctx, e, *wl, budget, tr)
	} else {
		out, err = workloads[*wl](ctx, e, budget, nil)
	}
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return fmt.Errorf("%s attempted no operations", *wl)
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.fail("metric %s is not finite", name)
		}
	}
	correct := out.failed == 0
	base := fmt.Sprintf("%s-seed%d-trace%d", *wl, *seed, *traced)
	if tr != nil {
		if err := tr.write(filepath.Join(resultsDir, "spans-"+base+".json")); err != nil {
			return err
		}
	}
	if err := writeResultFile(filepath.Join(resultsDir, base+".json"), e, *wl, *seconds, *traced, correct, out); err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printShares(out.named)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
	return nil
}

// writeResultFile stamps the run with the host fingerprint, revision and
// seed, next to every metric and named figure.
func writeResultFile(path string, e *env, wl string, seconds float64, traced int, correct bool, out *outcome) error {
	b, err := json.MarshalIndent(map[string]any{
		"workload":   wl,
		"seed":       e.seed,
		"seconds":    seconds,
		"trace":      traced,
		"host":       hostFingerprint(e.root),
		"correct":    correct,
		"attempted":  out.attempted,
		"failed":     out.failed,
		"error_frac": float64(out.failed) / float64(max(out.attempted, 1)),
		"problems":   out.problems,
		"metrics":    out.metrics,
		"named":      out.named,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printShares writes the request-mix, cache and dedup shares the run
// produced to standard error, so the assumed mix can be read next to the
// figures it weights, and the run's wall-clock figures with them.
func printShares(named map[string]any) {
	var keys []string
	for k := range named {
		if strings.HasSuffix(k, "_share") || contains(wallFigures, k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: %s %v\n", k, named[k])
	}
}

// runTraced is the per-layer run: a traced pass of every workload (each
// gets a quarter of the budget), the in-process layer probes, and an
// untraced repeat of the chosen workload's drive whose difference from the
// traced one is the tracing overhead.
func runTraced(ctx context.Context, e *env, wl string, budget time.Duration, tr *tracer) (*outcome, error) {
	part := max(budget/4, time.Second)
	out := newOutcome()
	e2e := map[string]*outcome{}
	for _, name := range workloadOrder {
		o, err := workloads[name](ctx, e, part, tr)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", name, err)
		}
		out.merge(o)
		e2e[name] = o
		for k, v := range o.named {
			out.named[name+"."+k] = v
		}
		for k, m := range o.metrics {
			if contains(endToEnd, k) {
				out.named[name+".traced."+k] = m.Value
			} else {
				out.metrics[k] = m
			}
		}
	}
	if err := runProbes(ctx, e, tr, out); err != nil {
		return nil, err
	}
	plain, err := workloads[wl](ctx, e, part, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced %s: %w", wl, err)
	}
	out.merge(plain)
	// Tracing runs in this process, so its cost shows in wall time, not in
	// the CPU time of the coldtall children the end-to-end metrics count.
	t, u := e2e[wl].named["op_p50_ms"].(float64), plain.named["op_p50_ms"].(float64)
	out.set("trace.overhead_pct", 100*(t-u)/u, "%")
	out.named["untraced.op_p50_ms"] = u
	out.named["traced.op_p50_ms"] = t

	self := tr.selfTimes()
	for _, l := range spanLayers {
		out.set("self_ms."+l, self[l], "ms")
	}
	var extra []string
	for l := range self {
		if !contains(spanLayers, l) {
			extra = append(extra, l)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		out.fail("spans recorded for unlisted layers %v", extra)
	}
	out.set("trace.spans", float64(len(tr.spans)), "count")
	return out, nil
}

// endToEnd names the metrics of an untraced run.
var endToEnd = []string{"setup_s", "peak_rss_mb", "ref_cpu_ms_per_op"}

// wallFigures are every workload's wall-clock figures. They go to the
// result file and standard error, not to the result line: see README.md.
var wallFigures = []string{"op_p50_ms", "op_tail_ms", "throughput_per_s"}

// spanLayers are the layers the traced run records spans for; each gets a
// self-time metric.
var spanLayers = []string{
	"export", "artifact", "report", "tech", "array", "explorer",
	"serve", "server", "cache", "store", "trace", "sim", "signature", "ingest",
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
