// Package server turns the coldtall study into a long-running
// design-space-exploration service: HTTP handlers over the explorer and
// study sweeps, a sharded LRU response cache layered over singleflight (so
// concurrent identical requests compute once and repeats are O(1)), bounded
// admission with load shedding, per-request deadlines threaded into every
// sweep (each artifact's grid runs the explorer's engine under the
// request's context), panic isolation, structured access logs, Prometheus-format
// metrics, pprof, and graceful drain on shutdown. Standard library only.
//
// Endpoints:
//
//	POST /v1/characterize        array characterization of one design point
//	POST /v1/evaluate            application-level metrics under one benchmark
//	POST /v1/sweep               points x benchmarks evaluation grid
//	POST /v1/pareto              Pareto-optimal internal organizations
//	POST /v1/workloads           ingest a custom workload (trace or generator
//	                             spec) as an async job (202 + job ID)
//	GET  /v1/workloads           workload catalog: 23 static SPEC entries plus
//	                             every ingested workload
//	GET  /v1/workloads/{name}    one workload's source record
//	DELETE /v1/workloads/{name}  remove an ingested workload (refused while
//	                             aliases still depend on it)
//	GET  /v1/workloads/{name}/artifacts/{artifact}
//	                             a traffic-dependent artifact (fig5, fig7,
//	                             coldtall) rendered for one workload
//	GET  /v1/workloads/{name}/signature
//	                             the workload's locality signature
//	GET  /v1/workloads/{name}/similar
//	                             other workloads ranked by signature distance
//	POST /v1/workloads/{name}/distill
//	                             fit a compact generator spec to the stored
//	                             trace as an async job (202 + job ID)
//	POST /v1/workloads/{name}/chunks?offset=N
//	                             append one chunk of a resumable trace
//	                             upload (finish with ?complete=1)
//	GET  /v1/workloads/{name}/chunks
//	                             the upload's resume offset
//	POST /v1/jobs                submit an async sweep/artifact/ingest job (202 + ID)
//	GET  /v1/jobs                job table (ordered by ID)
//	GET  /v1/jobs/{id}           job state + progress
//	GET  /v1/jobs/{id}/result    finished job payload (sweep JSON / artifact CSV)
//	DELETE /v1/jobs/{id}         cancel a running job
//	GET  /v1/artifacts           artifact catalog: names, titles, typed schemas
//	GET  /v1/artifacts/{name}    any registry artifact (JSON, or CSV via
//	                             ?format=csv / Accept: text/csv)
//	GET  /v1/figures/{n}         alias for /v1/artifacts/fig{n} (n in 1,3,4,5,6,7)
//	GET  /v1/tables/{n}          alias for /v1/artifacts/table{n} (n in 1,2)
//	GET  /v1/openapi.json        versioned OpenAPI document generated from the
//	                             route table and the artifact registry
//	GET  /healthz                liveness (503 while draining)
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/pprof/           runtime profiles
//
// The artifact routes are generic over the registry (coldtall.Artifacts);
// no per-artifact handler code exists, so a new descriptor is served
// automatically.
//
// Multi-tenancy: requests carrying an API key ("Authorization: Bearer" or
// "X-Coldtall-Key") resolve to a named tenant with its own rate limit,
// compute budget, concurrent-job quota, and fair-share weight (see
// internal/tenant); keyless requests use the anonymous tier, which is
// unlimited by default so single-tenant deployments behave exactly as
// before. GET /v1/jobs/{id} additionally streams live progress as
// Server-Sent Events when the client sends "Accept: text/event-stream",
// or long-polls for the next change with ?wait=30s.
package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coldtall"
	"coldtall/internal/cache"
	"coldtall/internal/explorer"
	"coldtall/internal/ingest"
	"coldtall/internal/job"
	"coldtall/internal/metrics"
	"coldtall/internal/signature"
	"coldtall/internal/store"
	"coldtall/internal/tenant"
	"coldtall/internal/workload"
)

// Config tunes the service. The zero value of every field selects a
// production-reasonable default (documented per field).
type Config struct {
	// CacheEntries bounds the response LRU (1024 entries by default).
	CacheEntries int
	// Timeout is the per-request compute deadline threaded into every
	// sweep, artifact grids included (60s by default). A request past its
	// deadline aborts its sweep and answers 504.
	Timeout time.Duration
	// MaxInflight bounds concurrently computing requests; requests beyond
	// the bound are shed with 429 + Retry-After instead of queueing
	// (cache hits are never shed). Default 4.
	MaxInflight int
	// MaxBodyBytes bounds request bodies (1 MiB by default).
	MaxBodyBytes int64
	// DrainTimeout bounds the graceful drain on shutdown (30s default).
	DrainTimeout time.Duration
	// StoreDir, when set, roots the persistent result store:
	// characterizations survive restarts (read lazily through the
	// explorer's cache tier, so a restarted server re-renders any response
	// without re-running the optimizer), and async jobs persist their
	// records and results in it. Response bodies are never stored. Empty
	// keeps the server memory-only.
	StoreDir string
	// TenantsFile, when set, loads named tenants (API keys, quotas,
	// budgets, weights) from a JSON config; see internal/tenant. Empty
	// keeps only the anonymous tier.
	TenantsFile string
	// DefaultQuota, when positive, is the compute budget (estimated
	// design-point evaluations per budget window) applied to the default
	// tier — including anonymous — when the tenants file does not set one.
	DefaultQuota int64
	// JobConcurrency bounds async jobs executing at once; queued jobs
	// dispatch by priority class and tenant fair share (0 = job package
	// default).
	JobConcurrency int
	// Logger receives structured access log lines and server lifecycle
	// messages (stderr by default).
	Logger *log.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "coldtall-serve ", log.LstdFlags|log.Lmicroseconds)
	}
	return c
}

// serverMetrics bundles the registry and the series the handlers touch.
type serverMetrics struct {
	reg *metrics.Registry
	// latency is request wall time in seconds, all endpoints.
	latency *metrics.Histogram
	// inflight counts requests currently being handled; sweepsInflight
	// counts requests currently computing (admission slots in use).
	inflight       *metrics.Gauge
	sweepsInflight *metrics.Gauge
	// cacheHits/cacheMisses count response-cache lookups; shed counts
	// 429s; panics counts recovered handler crashes; evictions counts
	// cache entries displaced under capacity pressure.
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	shed        *metrics.Counter
	panics      *metrics.Counter
	evictions   *metrics.Counter
	// jobsRunning tracks async jobs currently executing.
	jobsRunning *metrics.Gauge
	// workloadUploads counts completed ingestions; the histograms profile
	// what arrives (canonical trace bytes, access counts) and how long the
	// replay simulation takes.
	workloadUploads *metrics.Counter
	traceBytes      *metrics.Histogram
	traceAccesses   *metrics.Histogram
	replaySeconds   *metrics.Histogram
	// ingestDedup counts ingestions that matched an existing workload and
	// registered as an alias instead of a full entry.
	ingestDedup *metrics.Counter
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		reg:            reg,
		latency:        reg.Histogram("coldtall_request_seconds", "Request latency in seconds.", nil),
		inflight:       reg.Gauge("coldtall_http_inflight", "Requests currently being handled."),
		sweepsInflight: reg.Gauge("coldtall_sweeps_inflight", "Requests currently computing (admission slots in use)."),
		cacheHits:      reg.Counter("coldtall_cache_hits_total", "Response cache hits."),
		cacheMisses:    reg.Counter("coldtall_cache_misses_total", "Response cache misses."),
		shed:           reg.Counter("coldtall_shed_total", "Requests shed with 429 under saturation."),
		panics:         reg.Counter("coldtall_panics_total", "Handler panics recovered to 500s."),
		evictions:      reg.Counter("coldtall_cache_evictions_total", "Response cache entries evicted under capacity pressure."),
		jobsRunning:    reg.Gauge("coldtall_jobs_running", "Async jobs currently executing."),
		workloadUploads: reg.Counter("coldtall_workload_uploads_total",
			"Workload ingestions completed (traces and generator specs)."),
		traceBytes: reg.Histogram("coldtall_workload_trace_bytes",
			"Canonical .ctrace size of ingested workloads in bytes.",
			[]float64{1 << 10, 16 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}),
		traceAccesses: reg.Histogram("coldtall_workload_trace_accesses",
			"Access count of ingested workloads.",
			[]float64{1e3, 1e4, 1e5, 1e6, 4e6, 8e6}),
		replaySeconds: reg.Histogram("coldtall_workload_replay_seconds",
			"Wall-clock LLC replay time per ingestion.", nil),
		ingestDedup: reg.Counter("coldtall_ingest_dedup_total",
			"Ingestions deduplicated into aliases of existing workloads."),
	}
}

// jobStates returns the lazily created per-terminal-state job counter.
func (m *serverMetrics) jobStates(state job.State) *metrics.Counter {
	name := fmt.Sprintf("coldtall_jobs_total{state=%q}", string(state))
	return m.reg.Counter(name, "Async job state transitions by resulting state.")
}

// refreshStoreMetrics projects the store's cumulative stats onto gauges at
// scrape time (the store owns the counters; the registry only mirrors
// them).
func (s *Server) refreshStoreMetrics() {
	if s.st == nil {
		return
	}
	st := s.st.Stats()
	s.met.reg.Gauge("coldtall_store_entries", "Live entries in the persistent result store.").Set(int64(st.Entries))
	s.met.reg.Gauge("coldtall_store_hits", "Cumulative persistent-store hits.").Set(st.Hits)
	s.met.reg.Gauge("coldtall_store_misses", "Cumulative persistent-store misses.").Set(st.Misses)
	s.met.reg.Gauge("coldtall_store_puts", "Cumulative persistent-store writes.").Set(st.Puts)
	s.met.reg.Gauge("coldtall_store_corrupt", "Entries quarantined as corrupt.").Set(st.Corrupt)
}

// requests returns the lazily created per-path+code counter.
func (m *serverMetrics) requests(path string, code int) *metrics.Counter {
	name := fmt.Sprintf("coldtall_http_requests_total{path=%q,code=\"%d\"}", path, code)
	return m.reg.Counter(name, "Requests by path and status code.")
}

// Server is the coldtall DSE service. Construct with New; it is immutable
// after construction and safe for concurrent use.
type Server struct {
	cfg       Config
	study     *coldtall.Study
	respCache *cache.Cache[[]byte]
	st        *store.Store
	jobs      *job.Manager
	workloads *workload.Registry
	// sigs indexes the locality signature of every registered custom
	// workload; ingest dedup compares against it and the signature/similar
	// routes read it.
	sigs *signature.Index
	// uploads manages resumable chunked trace uploads (nil without a
	// store — resumability is a persistence feature).
	uploads  *ingest.Uploads
	tenants  *tenant.Registry
	met      *serverMetrics
	adm      *admissionPool
	handler  http.Handler
	draining atomic.Bool
	// drainCh closes when the drain starts, before the listener stops
	// accepting: live SSE subscribers flush a final event and disconnect
	// so Shutdown is not held open by open streams.
	drainCh   chan struct{}
	drainOnce sync.Once
	// openapi is the OpenAPI document, rendered once at construction from
	// the route table and the artifact registry.
	openapi []byte
}

// New builds a server around an existing study. The study's explorer (and
// so its characterization cache) is shared across all requests; the
// response cache sits in front of it keyed on canonicalized requests.
//
// With cfg.StoreDir set, the server gains memory across restarts: the
// explorer's characterization cache is backed by the persistent store as
// its tier (through job.NewManager), and jobs interrupted by the previous
// process are recovered and re-run from the stored characterizations. The
// response cache stays memory-only: a restarted server re-renders each
// body from the stored characterizations.
func New(study *coldtall.Study, cfg Config) (*Server, error) {
	if study == nil {
		return nil, fmt.Errorf("server: study must not be nil")
	}
	cfg = cfg.withDefaults()
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("server: MaxInflight must be non-negative, got %d", cfg.MaxInflight)
	}
	respCache, err := cache.New[[]byte](cfg.CacheEntries)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:       cfg,
		study:     study,
		respCache: respCache,
		met:       newServerMetrics(),
		drainCh:   make(chan struct{}),
	}
	// The tenant registry: anonymous-only without a config file, so every
	// pre-tenancy deployment keeps its exact behaviour.
	topts := tenant.Options{DefaultQuota: cfg.DefaultQuota}
	if cfg.TenantsFile != "" {
		s.tenants, err = tenant.LoadFile(cfg.TenantsFile, topts)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		cfg.Logger.Printf("tenants: loaded %d from %s", len(s.tenants.Names())-1, cfg.TenantsFile)
	} else {
		s.tenants = tenant.New(topts)
	}
	s.adm = newAdmissionPool(cfg.MaxInflight, s.tenants.Weight)
	s.respCache.SetOnEvict(func(n int) { s.met.evictions.Add(int64(n)) })
	// The study's workload registry: the study resolves figure traffic
	// through it, the job manager registers ingestions into it, and the
	// /v1/workloads routes list it.
	s.workloads = study.Workloads()
	// The signature index rides alongside the registry: every completed
	// ingestion registers its locality signature, and new uploads are
	// compared against it for near-duplicate detection.
	s.sigs = signature.NewIndex()
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{Version: explorer.ModelVersion})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.st = st
		// Rebuild the registry from persisted workload records before job
		// recovery: a resumed artifact job may reference an ingested
		// workload and must find it already registered.
		if rec, skip, err := ingest.RecoverSources(st, s.workloads); err != nil {
			cfg.Logger.Printf("workload recovery: %v", err)
		} else if rec > 0 || skip > 0 {
			cfg.Logger.Printf("workload recovery: restored %d ingested workloads (%d records skipped)", rec, skip)
		}
		if n := ingest.RecoverSignatures(st, s.workloads, s.sigs); n > 0 {
			cfg.Logger.Printf("workload recovery: restored %d locality signatures", n)
		}
		// Resumable chunked uploads persist through the same store, so an
		// interrupted upload continues from its acknowledged offset after a
		// restart.
		s.uploads = ingest.NewUploads(st)
	}
	s.jobs, err = job.NewManager(study, job.Options{
		Store:         s.st,
		Logger:        cfg.Logger,
		Sigs:          s.sigs,
		MaxConcurrent: cfg.JobConcurrency,
		TenantWeight:  s.tenants.Weight,
		OnIngest: func(res ingest.Result) {
			s.met.workloadUploads.Inc()
			s.met.traceBytes.Observe(float64(res.TraceBytes))
			s.met.traceAccesses.Observe(float64(res.Source.Accesses))
			s.met.replaySeconds.Observe(res.ReplaySeconds)
			if res.Deduped {
				s.met.ingestDedup.Inc()
			}
		},
		OnTransition: func(id string, from, to job.State) {
			if to == job.StateRunning {
				s.met.jobsRunning.Inc()
			}
			if from == job.StateRunning && to.Terminal() {
				s.met.jobsRunning.Dec()
			}
			if to.Terminal() {
				s.met.jobStates(to).Inc()
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if s.st != nil {
		if n, err := s.jobs.Recover(); err != nil {
			cfg.Logger.Printf("job recovery: %v", err)
		} else if n > 0 {
			cfg.Logger.Printf("job recovery: resumed %d interrupted jobs", n)
		}
	}
	s.openapi = OpenAPIJSON()
	s.handler = s.buildHandler()
	return s, nil
}

// buildHandler assembles the route table and the middleware chain. The
// public API routes come from apiRoutes() — the same table the OpenAPI
// document is generated from, so the two cannot drift.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range apiRoutes() {
		h := rt.handler
		mux.HandleFunc(rt.method+" "+rt.pattern, func(w http.ResponseWriter, r *http.Request) { h(s, w, r) })
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Innermost to outermost: routes, body limits, tenant auth,
	// observation, recovery.
	var h http.Handler = mux
	h = s.limitBody(h)
	h = s.authTenant(h)
	h = s.observe(h)
	h = s.recoverPanics(h)
	return h
}

// ReloadTenants re-reads the tenants file (SIGHUP hot reload). A failed
// reload keeps the previous tenant set and returns the error.
func (s *Server) ReloadTenants() error {
	if err := s.tenants.Reload(); err != nil {
		s.cfg.Logger.Printf("tenants: reload failed, keeping previous set: %v", err)
		return err
	}
	s.cfg.Logger.Printf("tenants: reloaded %d from %s", len(s.tenants.Names())-1, s.cfg.TenantsFile)
	return nil
}

// startDrain flips the health signal and releases every live stream.
func (s *Server) startDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Serve accepts connections on ln until ctx is done, then drains: the
// listener closes (new connections are refused), in-flight requests run to
// completion (bounded by DrainTimeout), and only then does Serve return.
// A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	s.startDrain()
	s.cfg.Logger.Printf("draining: refusing new connections, finishing in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
		<-errc
		s.stopJobs(drainCtx)
		return fmt.Errorf("server: drain: %w", err)
	}
	<-errc // http.ErrServerClosed from the Serve goroutine
	s.stopJobs(drainCtx)
	s.cfg.Logger.Printf("drained cleanly")
	return nil
}

// stopJobs finishes the drain's second phase: running jobs get the rest of
// the drain budget to complete; stragglers are cancelled, which is safe —
// every characterization they completed is already in the store, so the
// next boot's Recover re-runs them with only the unfinished work left.
func (s *Server) stopJobs(ctx context.Context) {
	if err := s.jobs.Wait(ctx); err != nil {
		s.cfg.Logger.Printf("drain: cancelling jobs still running at timeout (characterizations preserved)")
	}
	s.jobs.Close()
}
