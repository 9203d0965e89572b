// Command coldtall regenerates the paper's evaluation artifacts from the
// command line:
//
//	coldtall fig1|fig3|fig4|fig5|fig6|fig7   # figures (tables + ASCII plots)
//	coldtall table1|table2                   # tables
//	coldtall cooling                         # Sec. III-C sensitivity
//	coldtall all                             # everything, in paper order
//	coldtall verify                          # re-evaluate every paper claim
//
// Extension studies with a registry artifact:
//
//	coldtall coldtall      # Sec. VI: combined cryogenic + 3D grid, then its verdict
//	coldtall reliability   # SECDED FIT / wear-out / retention tails
//	coldtall techaxes      # the gaincell, deepcryo and freqsweep artifacts
//	coldtall gaincell|deepcryo|freqsweep   # one of them
//
// Extension studies without one, printed as tables:
//
//	coldtall exclusions    # why 1T1C-eDRAM and SOT-RAM sit out
//	coldtall impact        # cross-stack AMAT / IPC consequences
//	coldtall nodes         # the verdict on 45nm and 16nm
//	coldtall survey        # every survey datapoint vs the tentpoles
//	coldtall thermal       # Sec. V-A self-consistent operating points
//	coldtall traffic       # simulated vs static traffic calibration
//
// Every table prints through report.Table.Render, its footnote included.
//
// Artifact registry (the declarative catalog behind figures, tables, CSV
// export and the HTTP /v1/artifacts API — see internal/artifact):
//
//	coldtall artifacts list               # name, file, paper mapping, columns
//	coldtall artifacts fig5               # render any artifact by name
//	coldtall artifacts -format csv cooling
//
// Tools:
//
//	coldtall sweep -cell PCM -corner optimistic -dies 8 -temp 350
//	coldtall sweep -cell OS-GC -style monolithic -dies 4 -temp 4
//	coldtall sweep -cell SRAM -temp 77 -freq 10e9
//	coldtall pareto -cell STT-RAM -dies 8
//	coldtall eval -config study.json
//	coldtall export -dir out
//	coldtall serve -addr :8080       # HTTP DSE service (see internal/server)
//	coldtall serve -addr 127.0.0.1:0 # any free port; the banner names it
//	coldtall serve -store-dir /var/coldtall  # + stored characterizations and jobs
//
// Async jobs (against a running serve instance):
//
//	coldtall jobs list
//	coldtall jobs list -state done -limit 10      # filter + paginate
//	coldtall jobs submit table2      # artifact name, spec file, or - (stdin)
//	coldtall jobs status <id>
//	coldtall jobs wait <id> > out.csv
//	coldtall jobs watch <id> > out.csv   # live SSE progress on stderr
//	coldtall jobs cancel <id>
//
// Custom workloads (against a running serve instance):
//
//	coldtall workloads list             # catalog: 23 SPEC entries + ingested
//	coldtall workloads add spec.json    # ingest a generator spec or .ctrace
//	coldtall workloads add -            # ... or read the spec from stdin
//	coldtall workloads traffic <name>   # derived LLC reads/s and writes/s
//
// Multi-tenant serving (see internal/tenant):
//
//	coldtall serve -tenants tenants.json      # API keys, budgets, fair share
//	coldtall serve -default-quota 100000      # anonymous budget (evals/window)
//	coldtall openapi > openapi.json           # the served /v1/openapi.json bytes
//	coldtall jobs -api-key $KEY submit table2 # authenticate as a tenant
//
// Flags:
//
//	-cooler 100kW|1kW|100W|10W   cryocooler class (default 100kW)
//	-plot=false                  suppress ASCII scatter plots
//	-workers N                   worker pool size of sweeps and async jobs
//	                             (0 = one per CPU, 1 = serial; outputs
//	                             identical either way)
//	-addr, -cache-size, -timeout serve: listen address, response cache
//	                             entries, per-request compute deadline
//	-store-dir                   serve: result-store directory (job recovery;
//	                             a restart re-renders responses from stored
//	                             characterizations, without the optimizer)
//	-tenants, -default-quota     serve: tenant config file (SIGHUP reloads),
//	                             default per-tenant eval budget
//	-server                      jobs/workloads: serve base URL
//	-api-key                     jobs/workloads: tenant API key (bearer auth)
//	-state, -limit, -cursor      jobs list: state filter + pagination
//
// SIGINT/SIGTERM cancel in-flight sweeps; serve drains gracefully, flushing
// live job streams first. SIGHUP reloads the -tenants file in place.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/server"
	"coldtall/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coldtall:", err)
		os.Exit(1)
	}
}

// errUnknownSubcommand marks a dispatch miss; run surfaces it unwrapped
// (the message already names the offending subcommand).
var errUnknownSubcommand = errors.New("unknown subcommand")

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("coldtall", flag.ContinueOnError)
	cooler := fs.String("cooler", "100kW", "cryocooler class: 100kW, 1kW, 100W, 10W")
	plot := fs.Bool("plot", true, "render ASCII scatter plots for fig5/fig7")
	workers := fs.Int("workers", 0, "worker pool size of sweeps and jobs: 0 = one per CPU, 1 = serial")
	outDir := fs.String("dir", "out", "export: output directory for CSV files")
	configPath := fs.String("config", "", "eval: path to a JSON study config")
	cellName := fs.String("cell", "SRAM", "sweep: cell technology (SRAM, 3T-eDRAM, PCM, STT-RAM, RRAM, SOT-RAM, OS-GC)")
	corner := fs.String("corner", "optimistic", "sweep: tentpole corner for eNVMs and the OS gain cell")
	dies := fs.Int("dies", 1, "sweep: stacked die count (1, 2, 4, 8)")
	temp := fs.Float64("temp", 350, "sweep: operating temperature in kelvin (4-400)")
	style := fs.String("style", "", "sweep: 3D integration style (tsv, face-to-face, monolithic; empty = tsv)")
	freq := fs.Float64("freq", 0, "sweep: core clock in Hz (0 = the Table I 5 GHz)")
	addr := fs.String("addr", ":8080", "serve: listen address")
	cacheSize := fs.Int("cache-size", 1024, "serve: response cache capacity in entries")
	timeout := fs.Duration("timeout", 60*time.Second, "serve: per-request compute deadline")
	storeDir := fs.String("store-dir", "", "serve: persistent result-store directory (empty = in-memory only)")
	jobConcurrency := fs.Int("job-concurrency", 0, "serve: async jobs executing at once (0 = default 2); excess queues by priority and fair share")
	serverURL := fs.String("server", "http://localhost:8080", "jobs/workloads: base URL of a running serve instance")
	format := fs.String("format", "table", "artifacts: output format (table, csv)")
	tenantsFile := fs.String("tenants", "", "serve: tenant config file with API keys, limits and weights (SIGHUP reloads)")
	defaultQuota := fs.Int64("default-quota", 0, "serve: default per-tenant compute budget in design-point evaluations per window (0 = unlimited)")
	apiKey := fs.String("api-key", "", "jobs/workloads: tenant API key, sent as a bearer token")
	jobState := fs.String("state", "", "jobs list: filter by state (queued, running, done, failed, cancelled)")
	jobLimit := fs.Int("limit", 0, "jobs list: page size (0 = everything)")
	jobCursor := fs.String("cursor", "", "jobs list: resume after this job ID (from a previous page)")

	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand (fig1..fig7, table1, table2, cooling, coldtall, reliability, exclusions, impact, nodes, survey, thermal, traffic, techaxes, gaincell, deepcryo, freqsweep, verify, artifacts, eval, export, sweep, pareto, serve, jobs, workloads, openapi, all)")
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return fmt.Errorf("%s: parsing flags: %w", cmd, err)
	}

	cls, err := cryo.ParseClass(*cooler)
	if err != nil {
		return fmt.Errorf("%s: flag -cooler: %w", cmd, err)
	}
	cooling := cryo.DefaultCooling()
	cooling.Class = cls
	study, err := coldtall.NewStudyWithCooling(cooling)
	if err != nil {
		return fmt.Errorf("%s: building study: %w", cmd, err)
	}
	study.SetParallelism(*workers)
	// Thread the signal context into every sweep: ctrl-C aborts a running
	// figure or table mid-sweep instead of waiting it out.
	study = study.WithContext(ctx)

	if err := dispatch(ctx, cmd, study, w, cliFlags{
		plot: *plot, outDir: *outDir, configPath: *configPath,
		cellName: *cellName, corner: *corner, dies: *dies, temp: *temp,
		style: *style, freq: *freq,
		addr: *addr, cacheSize: *cacheSize, timeout: *timeout,
		storeDir: *storeDir, jobConcurrency: *jobConcurrency,
		server: *serverURL,
		format: *format, args: positional(fs.Args()),
		tenantsFile: *tenantsFile, defaultQuota: *defaultQuota,
		apiKey: *apiKey, jobState: *jobState, jobLimit: *jobLimit, jobCursor: *jobCursor,
	}); err != nil {
		if errors.Is(err, errUnknownSubcommand) {
			return err
		}
		return fmt.Errorf("%s: %w", cmd, err)
	}
	return nil
}

// cliFlags carries the parsed flag values into the dispatcher.
type cliFlags struct {
	plot               bool
	outDir, configPath string
	cellName, corner   string
	dies               int
	temp               float64
	style              string
	freq               float64
	addr               string
	cacheSize          int
	timeout            time.Duration
	storeDir           string
	jobConcurrency     int
	server             string
	format             string
	tenantsFile        string
	defaultQuota       int64
	apiKey             string
	jobState           string
	jobLimit           int
	jobCursor          string
	args               positional
}

// positional is the subcommand's non-flag arguments.
type positional []string

// arg returns the i-th positional argument, or "" when absent.
func (p positional) arg(i int) string {
	if i < len(p) {
		return p[i]
	}
	return ""
}

func dispatch(ctx context.Context, cmd string, study *coldtall.Study, w io.Writer, f cliFlags) error {
	switch cmd {
	case "artifacts":
		return runArtifacts(study, w, f)
	case "exclusions", "impact", "nodes", "survey", "thermal", "traffic", "verify":
		tables, err := studyTables(ctx, study, cmd)
		if err != nil {
			return err
		}
		return renderAll(w, tables...)
	case "techaxes":
		return renderArtifacts(study, w, f.plot, "gaincell", "deepcryo", "freqsweep")
	case "eval":
		if f.configPath == "" {
			return fmt.Errorf("flag -config: a JSON study config path is required")
		}
		fh, err := os.Open(f.configPath)
		if err != nil {
			return fmt.Errorf("flag -config: %w", err)
		}
		defer fh.Close()
		return study.RunConfigAndRender(fh, w)
	case "export":
		if err := study.Export(f.outDir); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote CSV artifacts to %s\n", f.outDir)
		return nil
	case "all":
		// Every registry artifact in paper order.
		return renderArtifacts(study, w, f.plot, coldtall.Artifacts().Names()...)
	case "sweep":
		return sweep(ctx, study, w, f)
	case "pareto":
		return pareto(ctx, w, f)
	case "serve":
		return serveHTTP(ctx, study, w, f)
	case "openapi":
		// The exact bytes a running serve answers at /v1/openapi.json —
		// the e2e artifacts scenario compares the two, so drift is impossible.
		_, err := w.Write(server.OpenAPIJSON())
		return err
	case "jobs":
		return runJobs(ctx, w, f)
	case "workloads":
		return runWorkloads(ctx, w, f)
	default:
		// Any registry artifact is a subcommand: `coldtall fig5`,
		// `coldtall table2`, `coldtall cooling`, ...
		if _, ok := coldtall.Artifacts().Lookup(cmd); ok {
			return study.RenderArtifact(w, cmd, f.plot)
		}
		return fmt.Errorf("%w %q (run with no arguments for the full list)", errUnknownSubcommand, cmd)
	}
}

// studyTables builds the tables of a study that has no registry artifact.
func studyTables(ctx context.Context, study *coldtall.Study, cmd string) ([]*report.Table, error) {
	var t *report.Table
	var err error
	switch cmd {
	case "exclusions":
		t, err = study.ExclusionTable()
	case "impact":
		t, err = study.ImpactTable()
	case "nodes":
		t, err = study.NodeScalingTable()
	case "survey":
		return study.SurveyTables()
	case "thermal":
		t, err = study.ThermalTable()
	case "traffic":
		t, err = trafficCalibration(ctx)
	case "verify":
		t = study.VerifyTable()
	}
	return []*report.Table{t}, err
}

// renderAll prints tables one after another, a blank line between each.
func renderAll(w io.Writer, tables ...*report.Table) error {
	for i, t := range tables {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// renderArtifacts prints registry artifacts one after another, a blank
// line after each.
func renderArtifacts(study *coldtall.Study, w io.Writer, plot bool, names ...string) error {
	for _, name := range names {
		if err := study.RenderArtifact(w, name, plot); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// runArtifacts implements the artifacts subcommand:
//
//	coldtall artifacts list            # the registry catalog
//	coldtall artifacts <name>          # render one artifact (table + plots)
//	coldtall artifacts -format csv <name>
func runArtifacts(study *coldtall.Study, w io.Writer, f cliFlags) error {
	name := f.args.arg(0)
	if name == "" || name == "list" {
		return renderArtifactList(w)
	}
	switch f.format {
	case "csv":
		return study.RenderArtifactCSV(w, name)
	case "", "table":
		return study.RenderArtifact(w, name, f.plot)
	}
	return fmt.Errorf("flag -format: unknown format %q (want table or csv)", f.format)
}

// renderArtifactList prints the registry catalog: one row per artifact
// with its name, export file, paper mapping and column schema. The first
// column is the contract the e2e artifacts scenario compares against the
// served /v1/artifacts endpoint.
func renderArtifactList(w io.Writer) error {
	t := report.NewTable("Artifact registry ("+fmt.Sprint(len(coldtall.Artifacts().Names()))+" artifacts)",
		"name", "file", "paper", "columns")
	for _, d := range coldtall.Artifacts().Descriptors() {
		cols := make([]string, len(d.Columns))
		for i, c := range d.Columns {
			cols[i] = c.Name
		}
		t.AddRow(d.Name, d.File, d.Paper, strings.Join(cols, ","))
	}
	return t.Render(w)
}

// parsePoint assembles the sweep/pareto flags into a validated design
// point via the same PointSpec the HTTP API uses.
func (f cliFlags) parsePoint() (explorer.DesignPoint, error) {
	return explorer.ParsePoint(explorer.PointSpec{
		Cell:         f.cellName,
		Corner:       f.corner,
		Dies:         f.dies,
		TemperatureK: f.temp,
		Style:        f.style,
		FrequencyHz:  f.freq,
	})
}

// serveHTTP runs the HTTP DSE service until the signal context fires, then
// drains. SIGHUP reloads the tenant config in place (key rotation without
// a restart); a broken file keeps the previous tenant set serving.
func serveHTTP(ctx context.Context, study *coldtall.Study, w io.Writer, f cliFlags) error {
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	srv, err := server.New(study, server.Config{
		CacheEntries:   f.cacheSize,
		Timeout:        f.timeout,
		StoreDir:       f.storeDir,
		JobConcurrency: f.jobConcurrency,
		TenantsFile:    f.tenantsFile,
		DefaultQuota:   f.defaultQuota,
	})
	if err != nil {
		ln.Close()
		return err
	}
	if f.tenantsFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if err := srv.ReloadTenants(); err != nil {
						fmt.Fprintf(os.Stderr, "coldtall: tenant reload failed (keeping previous set): %v\n", err)
					}
				}
			}
		}()
		fmt.Fprintf(w, "tenancy enabled from %s (SIGHUP to reload)\n", f.tenantsFile)
	}
	if f.storeDir != "" {
		fmt.Fprintf(w, "serving the DSE API on %s, persisting to %s (SIGINT/SIGTERM to drain)\n", ln.Addr(), f.storeDir)
	} else {
		fmt.Fprintf(w, "serving the DSE API on %s (SIGINT/SIGTERM to drain)\n", ln.Addr())
	}
	return srv.Serve(ctx, ln)
}

// pareto prints the Pareto-optimal internal organizations of one design
// point across (read latency, mean access energy, footprint) — the design
// space the single-objective search collapses.
func pareto(ctx context.Context, w io.Writer, f cliFlags) error {
	p, err := f.parsePoint()
	if err != nil {
		return err
	}
	front, err := array.ParetoContext(ctx, p.ArrayConfig())
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Pareto front for %s (%d of %d organizations)",
			p.Label, len(front), array.SearchSpaceSize()),
		"organization", "rd lat", "wr lat", "rd E/acc", "wr E/acc", "footprint", "leakage")
	for _, r := range front {
		t.AddRow(r.Org.String(),
			report.Eng(r.ReadLatency, "s"), report.Eng(r.WriteLatency, "s"),
			report.Eng(r.ReadEnergy, "J"), report.Eng(r.WriteEnergy, "J"),
			report.Area(r.FootprintM2), report.Eng(r.LeakagePower, "W"))
	}
	return t.Render(w)
}

// trafficCalibration simulates all 23 benchmark stand-ins and tabulates
// them against the static (Sniper-substitute) traffic table; ctx stops
// the replays.
func trafficCalibration(ctx context.Context) (*report.Table, error) {
	measured, err := workload.MeasureAll(ctx)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Traffic calibration: simulated stand-ins vs the static (Sniper-substitute) table",
		"benchmark", "static reads/s", "simulated reads/s", "ratio", "static writes/s", "simulated writes/s")
	for _, m := range measured {
		st, err := workload.StaticTrafficFor(m.Benchmark)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if st.ReadsPerSec > 0 {
			ratio = m.ReadsPerSec / st.ReadsPerSec
		}
		t.AddRow(m.Benchmark,
			fmt.Sprintf("%.3g", st.ReadsPerSec), fmt.Sprintf("%.3g", m.ReadsPerSec),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.3g", st.WritesPerSec), fmt.Sprintf("%.3g", m.WritesPerSec))
	}
	t.Note = "  Bounded-window caveats: sub-1e5-reads/s benchmarks are dominated by\n" +
		"  statistical noise (a handful of LLC events per window). Writebacks lag\n" +
		fmt.Sprintf("  demand traffic: in a %dk-access window dirty lines have not yet\n", workload.WindowAccesses/1000) +
		"  started to leave the L2, so simulated writes/s is 0 for every benchmark\n" +
		"  but mcf and the write column carries no signal. High-traffic read rates\n" +
		"  match the static table within a few percent."
	return t, nil
}

// sweep characterizes one design point and prints its array-level numbers.
func sweep(ctx context.Context, study *coldtall.Study, w io.Writer, f cliFlags) error {
	p, err := f.parsePoint()
	if err != nil {
		return err
	}
	r, err := study.Explorer().CharacterizeContext(ctx, p)
	if err != nil {
		return err
	}
	t := report.NewTable("Design point characterization: "+p.Label, "metric", "value")
	t.AddRow("organization", r.Org.String())
	t.AddRow("read latency", report.Eng(r.ReadLatency, "s"))
	t.AddRow("write latency", report.Eng(r.WriteLatency, "s"))
	t.AddRow("random cycle", report.Eng(r.RandomCycle, "s"))
	t.AddRow("read energy/access", report.Eng(r.ReadEnergy, "J"))
	t.AddRow("write energy/access", report.Eng(r.WriteEnergy, "J"))
	t.AddRow("leakage power", report.Eng(r.LeakagePower, "W"))
	t.AddRow("refresh power", report.Eng(r.RefreshPower, "W"))
	t.AddRow("footprint/die", report.Area(r.FootprintM2))
	t.AddRow("total silicon", report.Area(r.TotalSiliconM2))
	t.AddRow("array efficiency", fmt.Sprintf("%.2f", r.ArrayEfficiency))
	t.AddRow("bandwidth", report.Eng(r.BandwidthAccesses, "acc/s"))
	return t.Render(w)
}
