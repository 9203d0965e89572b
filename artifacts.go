package coldtall

// The artifact registry: every paper deliverable — Figs. 1–7, Tables I–II,
// and the extension sweeps — declared once as a descriptor. CSV export
// (Export, RenderArtifactCSV), human rendering (RenderArtifact), the HTTP
// API (/v1/artifacts) and the CLI (artifacts list) all iterate this
// registry; adding an artifact is adding a descriptor here.

import (
	"context"
	"fmt"
	"io"

	"coldtall/internal/artifact"
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/signature"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// wlsigAccesses and wlsigSeed pin the wlsig artifact's stream: the rows
// are a pure function of the profile table, so the golden harness can
// hold them byte-stable.
const (
	wlsigAccesses = 1 << 15
	wlsigSeed     = 1
)

// Column kind shorthands for the descriptor tables below.
func str(name string) report.Column { return report.Column{Name: name, Kind: report.String} }
func num(name, unit string) report.Column {
	return report.Column{Name: name, Kind: report.Float, Unit: unit}
}
func rel(name string) report.Column     { return report.Column{Name: name, Kind: report.Float} }
func count(name string) report.Column   { return report.Column{Name: name, Kind: report.Int} }
func flagCol(name string) report.Column { return report.Column{Name: name, Kind: report.Bool} }

// trafficColumns is the shared Fig. 5 / Fig. 7 schema.
var trafficColumns = []report.Column{
	str("design_point"), str("cell"), num("temperature_k", "K"), count("dies"),
	str("benchmark"), num("reads_per_sec", "1/s"), num("writes_per_sec", "1/s"),
	rel("rel_device_power"), rel("rel_total_power"), rel("rel_latency"), flagCol("slowdown"),
}

// trafficScatters is the shared Fig. 5 / Fig. 7 plot hint pair.
var trafficScatters = []artifact.Scatter{
	{
		Title: "Total LLC power vs read traffic", XLabel: "read accesses/s",
		YLabel: "power rel. to 350K SRAM (namd)",
		XCol:   "reads_per_sec", YCol: "rel_total_power", SeriesCol: "design_point",
	},
	{
		Title: "Total LLC latency vs write traffic", XLabel: "write accesses/s",
		YLabel: "latency rel. to 350K SRAM (namd)",
		XCol:   "writes_per_sec", YCol: "rel_latency", SeriesCol: "design_point",
	},
}

// buildTraffic fills a traffic table from a Fig. 5 / Fig. 7 generator.
func buildTraffic(t *report.Table, rows []TrafficRow) error {
	for _, r := range rows {
		if err := t.Append(r.Label, r.Cell, r.TemperatureK, r.Dies,
			r.Benchmark, r.ReadsPerSec, r.WritesPerSec,
			r.RelDevicePower, r.RelTotalPower, r.RelLatency, r.Slowdown); err != nil {
			return err
		}
	}
	return nil
}

// artifacts is the registry, in paper order (which is also Export's file
// order — the parallel export must be indistinguishable from a serial one,
// so order matters twice).
var artifacts = artifact.MustNew(
	artifact.Descriptor[*Study]{
		Name: "fig1", File: "fig1.csv", Paper: "Fig. 1",
		Title:   "Fig. 1: Total LLC power of SRAM running SPEC2017.namd vs temperature (relative to 350K SRAM)",
		Columns: []report.Column{num("temperature_k", "K"), rel("rel_device_power"), rel("rel_total_power")},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).Fig1()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.TemperatureK, r.RelDevicePower, r.RelTotalPower); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "fig3", File: "fig3.csv", Paper: "Fig. 3",
		Title: "Fig. 3: Array-level characterization vs temperature (relative to 350K SRAM)",
		Columns: []report.Column{
			str("cell"), num("temperature_k", "K"),
			rel("rel_read_latency"), rel("rel_write_latency"), rel("rel_read_energy"), rel("rel_write_energy"),
			rel("rel_leakage"), num("retention_s", "s"),
		},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).Fig3()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Cell, r.TemperatureK, r.RelReadLatency, r.RelWriteLatency,
					r.RelReadEnergy, r.RelWriteEnergy, r.RelLeakagePower, r.RetentionS); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "fig4", File: "fig4.csv", Paper: "Fig. 4",
		Title:   "Fig. 4: Total LLC power, namd vs leela (relative to 350K SRAM running namd)",
		Columns: []report.Column{str("benchmark"), str("cell"), rel("rel_350k"), rel("rel_77k"), rel("rel_77k_cooled")},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).Fig4()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Benchmark, r.Cell, r.Rel350K, r.Rel77K, r.Rel77KCooled); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "fig5", File: "fig5.csv", Paper: "Fig. 5",
		Title:    "Fig. 5: Total LLC power and latency for SPEC2017, 77K vs 350K (relative to 350K SRAM running namd)",
		Columns:  trafficColumns,
		Scatters: trafficScatters,
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).Fig5()
			if err != nil {
				return err
			}
			return buildTraffic(t, rows)
		},
	},
	artifact.Descriptor[*Study]{
		Name: "fig6", File: "fig6.csv", Paper: "Fig. 6",
		Title: "Fig. 6: Array-level characterization of 2D/3D eNVMs at 350K (relative to 1-die SRAM)",
		Columns: []report.Column{
			str("design_point"), str("tech"), str("corner"), count("dies"),
			rel("rel_area"), rel("rel_read_energy"), rel("rel_write_energy"),
			rel("rel_read_latency"), rel("rel_write_latency"), rel("rel_leakage"),
		},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).Fig6()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Label, r.Tech, r.Corner, r.Dies,
					r.RelArea, r.RelReadEnergy, r.RelWriteEnergy,
					r.RelReadLatency, r.RelWriteLatency, r.RelLeakagePower); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "fig7", File: "fig7.csv", Paper: "Fig. 7",
		Title:    "Fig. 7: Total LLC power and latency for 2D/3D eNVMs at 350K (relative to 350K SRAM running namd)",
		Columns:  trafficColumns,
		Scatters: trafficScatters,
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).Fig7()
			if err != nil {
				return err
			}
			return buildTraffic(t, rows)
		},
	},
	artifact.Descriptor[*Study]{
		Name: "table1", File: "table1.csv", Paper: "Table I",
		Title:   "Table I: Key CPU model parameters",
		Columns: []report.Column{str("parameter"), str("value")},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			for _, r := range Table1() {
				if err := t.Append(r.Parameter, r.Value); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "table2", File: "table2.csv", Paper: "Table II",
		Title: "Table II: Optimal LLC per read-traffic regime and design target",
		Note: "  'alt' appears when the winner's write endurance limits lifetime; the\n" +
			"  350K-family columns restrict candidates to the Destiny-framework points\n" +
			"  the paper's performance column reports (see EXPERIMENTS.md).",
		Columns: []report.Column{
			str("band"), str("objective"), str("winner"), str("alternative"),
			str("winner_350k_family"), str("alternative_350k_family"), flagCol("endurance_concern"), rel("metric"),
		},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).Table2()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Band, r.Objective, r.Winner, r.Alternative,
					r.Winner3D, r.Alternative3D, r.EnduranceConcern, r.Metric); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "cooling", File: "cooling.csv", Paper: "Sec. III-C",
		Title:   "Cooling-overhead sensitivity: 77K 3T-eDRAM vs 350K SRAM (same benchmark; <1 = cryo wins)",
		Columns: []report.Column{str("cooler"), rel("overhead"), str("benchmark"), num("reads_per_sec", "1/s"), rel("rel_total_power")},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).CoolingSweep()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Cooler, r.Overhead, r.Benchmark, r.ReadsPerSec, r.RelTotalPower); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "coldtall", File: "coldtall.csv", Paper: "Sec. VI",
		Title: "Cold AND tall (Sec. VI future work): combined cryogenic + 3D under band-representative traffic (relative to 350K 1-die SRAM on namd)",
		Columns: []report.Column{
			str("benchmark"), str("design_point"), str("cell"), count("dies"), num("temperature_k", "K"),
			rel("rel_total_power"), rel("rel_latency"), rel("rel_area"),
		},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			s = s.WithContext(ctx)
			for _, bench := range BandRepresentatives() {
				rows, err := s.ColdAndTall(bench)
				if err != nil {
					return err
				}
				for _, r := range rows {
					if err := t.Append(r.Benchmark, r.Label, r.Cell, r.Dies,
						r.TemperatureK, r.RelTotalPower, r.RelLatency, r.RelArea); err != nil {
						return err
					}
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "reliability", File: "reliability.csv", Paper: "Sec. V-B",
		Title: "Reliability under SECDED(72,64): soft write FIT, wear-out horizon, retention tail",
		Columns: []report.Column{
			str("benchmark"), num("writes_per_sec", "1/s"), str("design_point"),
			num("soft_fit", "1/1e9h"), num("wear_lifetime_years", "years"), rel("weak_bits_per_refresh"),
		},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).ReliabilityStudy()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Benchmark, r.WritesPerSec, r.Label,
					r.SoftFIT, r.WearLifetimeYears, r.RetentionWeakBits); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "gaincell", File: "gaincell.csv", Paper: "Ext. (arXiv 2503.06304)",
		Title: "Gain-cell extension: monolithically-stacked OS gain cell vs 3T-eDRAM across temperature (relative to 350K 1-die SRAM on namd)",
		Columns: []report.Column{
			str("design_point"), str("cell"), str("corner"), count("dies"), num("temperature_k", "K"),
			num("retention_s", "s"), rel("rel_device_power"), rel("rel_total_power"),
			rel("rel_latency"), rel("rel_area"), flagCol("slowdown"),
		},
		Scatters: []artifact.Scatter{{
			Title: "Gain-cell total LLC power vs temperature", XLabel: "temperature (K)",
			YLabel: "power rel. to 350K SRAM (namd)",
			XCol:   "temperature_k", YCol: "rel_total_power", SeriesCol: "design_point",
		}},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).GainCellStudy()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Label, r.Cell, r.Corner, r.Dies, r.TemperatureK,
					r.RetentionS, r.RelDevicePower, r.RelTotalPower,
					r.RelLatency, r.RelArea, r.Slowdown); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "deepcryo", File: "deepcryo.csv", Paper: "Ext. (arXiv 2408.03308)",
		Title: "Deep-cryogenic extension: SRAM and 3T-eDRAM from 4K to 300K with Carnot-scaled cooling (relative to 350K SRAM on namd)",
		Columns: []report.Column{
			str("cell"), num("temperature_k", "K"), num("cooler_w_per_w", "W/W"),
			rel("rel_device_power"), rel("rel_total_power"), rel("rel_latency"),
		},
		Scatters: []artifact.Scatter{{
			Title: "Total LLC power vs temperature, 4K-300K", XLabel: "temperature (K)",
			YLabel: "power rel. to 350K SRAM (namd)",
			XCol:   "temperature_k", YCol: "rel_total_power", SeriesCol: "cell",
		}},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).DeepCryoSweep()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Cell, r.TemperatureK, r.CoolerWPerW,
					r.RelDevicePower, r.RelTotalPower, r.RelLatency); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "freqsweep", File: "freqsweep.csv", Paper: "Ext. (frequency axis)",
		Title: "Frequency-axis extension: 350K SRAM and 77K 3T-eDRAM across core clocks under mcf (rel_perf = f x IPC vs the 5GHz SRAM baseline)",
		Columns: []report.Column{
			str("design_point"), str("cell"), num("temperature_k", "K"), num("frequency_hz", "Hz"),
			rel("rel_ipc"), rel("rel_perf"), rel("rel_total_power"), flagCol("slowdown"),
		},
		Scatters: []artifact.Scatter{{
			Title: "End-to-end performance vs core clock", XLabel: "frequency (Hz)",
			YLabel: "perf rel. to 5GHz 350K SRAM",
			XCol:   "frequency_hz", YCol: "rel_perf", SeriesCol: "design_point",
		}},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			rows, err := s.WithContext(ctx).FrequencySweep()
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := t.Append(r.Label, r.Cell, r.TemperatureK, r.FrequencyHz,
					r.RelIPC, r.RelPerf, r.RelTotalPower, r.Slowdown); err != nil {
					return err
				}
			}
			return nil
		},
	},
	artifact.Descriptor[*Study]{
		Name: "wlsig", File: "wlsig.csv", Paper: "Ext. (workload intelligence)",
		Title: "Workload-intelligence extension: locality signatures of the built-in SPEC stand-in profiles " +
			"(streamed at a pinned access count and seed; the same summary ingestion computes during replay)",
		Columns: []report.Column{
			str("benchmark"), count("accesses"), rel("read_frac"), rel("seq_frac"),
			num("footprint_bytes", "B"), count("reuse_p50"), count("reuse_p90"), str("sig_sha256"),
		},
		Build: func(ctx context.Context, s *Study, t *report.Table) error {
			for _, p := range workload.Profiles() {
				if err := ctx.Err(); err != nil {
					return err
				}
				g, err := p.Generator(wlsigSeed)
				if err != nil {
					return err
				}
				sig := signature.FromGenerator(g, wlsigAccesses)
				if err := t.Append(p.Name, wlsigAccesses, sig.ReadFrac(), sig.SeqFrac(),
					float64(sig.FootprintBytes()), int(sig.ReuseQuantile(0.5)), int(sig.ReuseQuantile(0.9)),
					sig.SHA256()[:16]); err != nil {
					return err
				}
			}
			return nil
		},
	},
)

// ArtifactDescriptor is the study-bound descriptor type — what consumers
// outside this package see when they iterate Artifacts().Descriptors().
type ArtifactDescriptor = artifact.Descriptor[*Study]

// Artifacts exposes the registry — the single source of truth the CLI, the
// CSV export and the HTTP server all derive their artifact surfaces from.
func Artifacts() *artifact.Registry[*Study] { return artifacts }

// ArtifactNames lists every exportable artifact file name ("fig1.csv", ...,
// "reliability.csv") in paper order.
func (s *Study) ArtifactNames() []string { return artifacts.Files() }

// ArtifactTable builds one artifact by registry name or file name and
// returns it as a schema-carrying table — the writer-agnostic form Export,
// RenderArtifact and the HTTP server all render from (CSV to a file or
// response body, JSON as typed columns + rows).
func (s *Study) ArtifactTable(name string) (*report.Table, error) {
	return artifacts.Build(s.context(), s, name)
}

// RenderArtifactCSV builds one artifact by name and streams it as CSV.
func (s *Study) RenderArtifactCSV(w io.Writer, name string) error {
	t, err := s.ArtifactTable(name)
	if err != nil {
		return err
	}
	return t.RenderCSV(w)
}

// RenderArtifact writes an artifact's human form — the titled table, any
// descriptor note, and (when plot is true) its scatter hints — for any
// registry name. This one renderer replaced the per-figure RenderFigN
// family; the differences between figures live in their descriptors now.
// The "coldtall" grid is followed by its per-benchmark verdict.
func (s *Study) RenderArtifact(w io.Writer, name string, plot bool) error {
	if err := artifacts.Render(s.context(), s, name, w, plot); err != nil {
		return err
	}
	if d, _ := artifacts.Lookup(name); d.Name != "coldtall" {
		return nil
	}
	t, err := s.coldAndTallVerdicts()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return t.Render(w)
}

// ArtifactPoints returns the distinct design points an artifact's render
// path characterizes, the 350 K SRAM baseline every artifact normalizes
// against included. Tenant admission prices an artifact job by its length
// (one design-point evaluation each), so it only sizes work and never
// changes results. Artifacts without an enumerable grid return nil.
func ArtifactPoints(name string) []explorer.DesignPoint {
	var pts []explorer.DesignPoint
	switch name {
	case "fig1":
		for _, t := range cryo.EffectiveTemperatures() {
			pts = append(pts, explorer.SRAMAt(t))
		}
	case "fig3", "fig4":
		pts = explorer.CryoSweep(cryo.EffectiveTemperatures())
	case "fig5":
		pts = fig5Points()
	case "fig6", "fig7":
		envm, err := explorer.ENVMSweep()
		if err != nil {
			return nil
		}
		pts = envm
	case "table2":
		cands, err := explorer.TableIICandidates()
		if err != nil {
			return nil
		}
		pts = cands
	case "cooling":
		pts = []explorer.DesignPoint{explorer.EDRAMAt(tech.TempCryo77)}
	default:
		return nil
	}
	pts = append(pts, explorer.Baseline())
	seen := make(map[string]bool, len(pts))
	out := pts[:0]
	for _, p := range pts {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}
