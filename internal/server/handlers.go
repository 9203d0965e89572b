package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/explorer"
	"coldtall/internal/job"
	"coldtall/internal/report"
	"coldtall/internal/workload"
)

// handleHealthz answers liveness probes; a draining server reports 503 so
// load balancers stop routing to it while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the Prometheus text exposition, refreshing the
// scrape-time store gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshStoreMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

// decode unmarshals a limited request body into v, mapping oversized bodies
// to 413 and malformed JSON to 400. It reports whether decoding succeeded.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// badRequest reports a client error with the parse/validation message.
func badRequest(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// grid interprets a design-point spec through the job layer's Grid — the
// one parser the async job kinds share — answering 400 on a bad spec.
func (s *Server) grid(w http.ResponseWriter, spec job.Spec) ([]explorer.DesignPoint, []workload.Traffic, bool) {
	points, traffics, err := spec.Grid(s.workloads.Traffic)
	if err != nil {
		badRequest(w, err)
		return nil, nil, false
	}
	return points, traffics, true
}

// handleCharacterize characterizes one design point: POST a PointSpec
// ({"cell":"PCM","corner":"optimistic","dies":8,"temperature_k":350}).
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	var spec explorer.PointSpec
	if !s.decode(w, r, &spec) {
		return
	}
	points, _, ok := s.grid(w, job.Spec{Kind: job.KindCharacterize, Points: []explorer.PointSpec{spec}})
	if !ok {
		return
	}
	p := points[0]
	s.serveCached(w, r, "application/json", "characterize|"+p.Key(), 1, func(ctx context.Context) ([]byte, error) {
		res, err := s.study.Explorer().CharacterizeContext(ctx, p)
		if err != nil {
			return nil, err
		}
		return job.CharacterizeJSON(p, res)
	})
}

// evaluateRequest pairs a design point with a benchmark.
type evaluateRequest struct {
	Point     explorer.PointSpec `json:"point"`
	Benchmark string             `json:"benchmark"`
}

// handleEvaluate evaluates one design point under one benchmark's traffic.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !s.decode(w, r, &req) {
		return
	}
	points, traffics, ok := s.grid(w, job.Spec{Kind: job.KindEvaluate,
		Points: []explorer.PointSpec{req.Point}, Benchmarks: []string{req.Benchmark}})
	if !ok {
		return
	}
	p, tr := points[0], traffics[0]
	s.serveCached(w, r, "application/json", "evaluate|"+p.Key()+"|"+tr.Benchmark, 1, func(ctx context.Context) ([]byte, error) {
		ev, err := s.study.Explorer().EvaluateContext(ctx, p, tr)
		if err != nil {
			return nil, err
		}
		return job.EvaluateJSON(ev)
	})
}

// sweepRequest crosses design points with benchmarks (all 23 static
// benchmarks when the list is empty).
type sweepRequest struct {
	Points     []explorer.PointSpec `json:"points"`
	Benchmarks []string             `json:"benchmarks,omitempty"`
}

// handleSweep evaluates a points x benchmarks grid on the worker pool.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	spec := job.Spec{Kind: job.KindSweep, Points: req.Points, Benchmarks: req.Benchmarks}
	points, traffics, ok := s.grid(w, spec)
	if !ok {
		return
	}
	keys := make([]string, 0, len(points)+len(traffics))
	for _, p := range points {
		keys = append(keys, p.Key())
	}
	if len(req.Benchmarks) == 0 {
		keys = append(keys, "ALL")
	} else {
		for _, tr := range traffics {
			keys = append(keys, tr.Benchmark)
		}
	}
	key := "sweep|" + strings.Join(keys, ";")
	s.serveCached(w, r, "application/json", key, spec.Cells(), func(ctx context.Context) ([]byte, error) {
		grid, err := s.study.Explorer().EvaluateAllContext(ctx, points, traffics)
		if err != nil {
			return nil, err
		}
		return job.SweepJSON(grid)
	})
}

// paretoRow is one Pareto-optimal organization.
type paretoRow struct {
	Organization string  `json:"organization"`
	ReadLatencyS float64 `json:"read_latency_s"`
	WriteLatency float64 `json:"write_latency_s"`
	ReadEnergyJ  float64 `json:"read_energy_j"`
	WriteEnergyJ float64 `json:"write_energy_j"`
	FootprintM2  float64 `json:"footprint_m2"`
	LeakageW     float64 `json:"leakage_w"`
}

// paretoResponse is the front plus the search-space size it was reduced
// from.
type paretoResponse struct {
	Point       string      `json:"point"`
	SearchSpace int         `json:"search_space"`
	Front       []paretoRow `json:"front"`
}

// handlePareto returns the Pareto-optimal internal organizations of one
// design point across (read latency, mean access energy, footprint).
func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	var spec explorer.PointSpec
	if !s.decode(w, r, &spec) {
		return
	}
	p, err := explorer.ParsePoint(spec)
	if err != nil {
		badRequest(w, err)
		return
	}
	key := "pareto|" + p.Key()
	s.serveCached(w, r, "application/json", key, 1, func(ctx context.Context) ([]byte, error) {
		front, err := array.ParetoContext(ctx, p.ArrayConfig())
		if err != nil {
			return nil, err
		}
		resp := paretoResponse{Point: p.Label, SearchSpace: array.SearchSpaceSize()}
		for _, res := range front {
			resp.Front = append(resp.Front, paretoRow{
				Organization: res.Org.String(),
				ReadLatencyS: res.ReadLatency,
				WriteLatency: res.WriteLatency,
				ReadEnergyJ:  res.ReadEnergy,
				WriteEnergyJ: res.WriteEnergy,
				FootprintM2:  res.FootprintM2,
				LeakageW:     res.LeakagePower,
			})
		}
		return json.Marshal(resp)
	})
}

// artifactColumn is the wire form of one schema column.
type artifactColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`
}

// artifactInfo describes one registry artifact: identity, paper mapping
// and typed column schema, without rows.
type artifactInfo struct {
	Name    string           `json:"name"`
	File    string           `json:"file"`
	Title   string           `json:"title"`
	Paper   string           `json:"paper,omitempty"`
	Columns []artifactColumn `json:"columns"`
}

func artifactInfoDTO(d coldtall.ArtifactDescriptor) artifactInfo {
	info := artifactInfo{
		Name:    d.Name,
		File:    d.File,
		Title:   d.Title,
		Paper:   d.Paper,
		Columns: make([]artifactColumn, len(d.Columns)),
	}
	for i, c := range d.Columns {
		info.Columns[i] = artifactColumn{Name: c.Name, Kind: c.Kind.String(), Unit: c.Unit}
	}
	return info
}

// artifactListResponse enumerates the registry in paper order.
type artifactListResponse struct {
	Artifacts []artifactInfo `json:"artifacts"`
}

// artifactResponse is the JSON form of a built artifact: its schema plus
// typed rows. Float cells encode as JSON numbers; NaN and ±Inf (spelled
// "+Inf" etc. in the CSV form) encode as null — report.FiniteOrNull.
type artifactResponse struct {
	artifactInfo
	Rows [][]any `json:"rows"`
}

// handleArtifactList serves the registry catalog: every artifact's name,
// file, title, paper mapping and typed schema. The catalog is static per
// build, so it is computed inline without touching the response cache.
func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	descriptors := coldtall.Artifacts().Descriptors()
	resp := artifactListResponse{Artifacts: make([]artifactInfo, len(descriptors))}
	for i, d := range descriptors {
		resp.Artifacts[i] = artifactInfoDTO(d)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// artifactFormat negotiates the response format: an explicit ?format=csv
// or ?format=json wins; otherwise an Accept header naming text/csv selects
// CSV and everything else defaults to JSON.
func artifactFormat(r *http.Request) (string, error) {
	switch format := r.URL.Query().Get("format"); format {
	case "json", "csv":
		return format, nil
	case "":
		if strings.Contains(r.Header.Get("Accept"), "text/csv") {
			return "csv", nil
		}
		return "json", nil
	default:
		return "", fmt.Errorf("unknown format %q (want json or csv)", format)
	}
}

// serveArtifact serves one registry artifact as JSON or CSV, built through
// the same registry table the CLI's export writes — the two are always
// byte-for-byte consistent. The cache key is per (artifact, format), so
// the generic route and the figure/table aliases share cache entries.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, name string) {
	d, ok := coldtall.Artifacts().Lookup(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown artifact %q (see GET /v1/artifacts for the catalog)", name), http.StatusNotFound)
		return
	}
	s.serveArtifactAs(w, r, d, "", "artifact|"+d.Name)
}

// serveArtifactAs serves artifact d, restricted to workload when it is
// non-empty, in the negotiated format under the cache key prefix. The CSV
// form is job.ArtifactCSV's, the bytes an artifact job's result carries;
// the JSON form is the schema plus typed rows.
func (s *Server) serveArtifactAs(w http.ResponseWriter, r *http.Request, d coldtall.ArtifactDescriptor, workload, key string) {
	format, err := artifactFormat(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	contentType := "application/json"
	if format == "csv" {
		contentType = "text/csv; charset=utf-8"
	}
	s.serveCached(w, r, contentType, key+"|"+format, artifactCost(d.Name), func(ctx context.Context) ([]byte, error) {
		st := s.study.WithContext(ctx)
		if format == "csv" {
			return job.ArtifactCSV(st, d.Name, workload)
		}
		var t *report.Table
		var err error
		if workload == "" {
			t, err = st.ArtifactTable(d.Name)
		} else {
			t, err = st.WorkloadArtifactTable(d.Name, workload)
		}
		if err != nil {
			return nil, err
		}
		rows := t.JSONRows()
		if rows == nil {
			rows = [][]any{}
		}
		return json.Marshal(artifactResponse{artifactInfo: artifactInfoDTO(d), Rows: rows})
	})
}

// handleArtifactByName serves GET /v1/artifacts/{name}; name may be the
// registry name ("fig1") or the export file name ("fig1.csv").
func (s *Server) handleArtifactByName(w http.ResponseWriter, r *http.Request) {
	s.serveArtifact(w, r, r.PathValue("name"))
}

// aliasNumbers lists the registry numbers behind a fig/table alias prefix,
// for the 404 message ("1, 3, 4, 5, 6, 7").
func aliasNumbers(prefix string) string {
	var nums []string
	for _, name := range coldtall.Artifacts().Names() {
		if rest, ok := strings.CutPrefix(name, prefix); ok && rest != "" {
			nums = append(nums, rest)
		}
	}
	return strings.Join(nums, ", ")
}

// handleFigure and handleTable are thin aliases onto the artifact registry
// kept for URL stability: /v1/figures/3 is /v1/artifacts/fig3.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.serveAlias(w, r, "figure", "fig")
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	s.serveAlias(w, r, "table", "table")
}

func (s *Server) serveAlias(w http.ResponseWriter, r *http.Request, kind, prefix string) {
	n := r.PathValue("n")
	name := prefix + n
	if _, ok := coldtall.Artifacts().Lookup(name); !ok {
		http.Error(w, fmt.Sprintf("unknown %s %q (the paper has %ss %s)", kind, n, kind, aliasNumbers(prefix)), http.StatusNotFound)
		return
	}
	s.serveArtifact(w, r, name)
}
