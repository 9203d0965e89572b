package coldtall

import (
	"context"

	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/workload"
)

// Study regenerates the paper's evaluation. It owns an explorer whose
// array characterizations are cached, so generating every figure costs each
// design-point optimization once.
//
// Every generator runs its grid through the explorer's sweep engine
// (explorer.EvaluateAllContext or CharacterizeAll) under the study's
// context, on the explorer's worker pool (see SetParallelism); outputs are
// deterministic at any worker count — parallel runs are byte-identical to
// serial ones, a property the golden regression tests pin down.
type Study struct {
	exp *explorer.Explorer

	// workloads resolves benchmark names to LLC traffic: the static SPEC
	// table plus every workload ingested into it (the server and the job
	// manager register uploads here, so custom workloads feed every
	// traffic-dependent figure).
	workloads *workload.Registry

	// ctx bounds every sweep the study runs; nil means context.Background.
	// Bind a context with WithContext — the HTTP server binds each
	// request's deadline, the CLI binds the interrupt signal.
	ctx context.Context
}

// NewStudy creates a study with the paper's default environment (100 kW
// cryocooler, Table I LLC).
func NewStudy() *Study {
	return &Study{exp: explorer.New(), workloads: workload.NewRegistry()}
}

// NewStudyWithCooling creates a study under a different cooling environment
// (the Section III-C sensitivity).
func NewStudyWithCooling(c cryo.Cooling) (*Study, error) {
	e, err := explorer.WithCooling(c)
	if err != nil {
		return nil, err
	}
	return &Study{exp: e, workloads: workload.NewRegistry()}, nil
}

// withCooling returns a study under a different cooling environment that
// shares the receiver's characterization cache (and persistence, when
// attached) and its workload registry. Characterization is cooling-independent, so cooler-class
// sub-studies built this way reuse every optimization the parent already
// paid for instead of rebuilding a private cache per class.
func (s *Study) withCooling(c cryo.Cooling) (*Study, error) {
	e, err := s.exp.WithCoolingShared(c)
	if err != nil {
		return nil, err
	}
	return &Study{exp: e, workloads: s.workloads, ctx: s.ctx}, nil
}

// Explorer exposes the underlying engine for custom sweeps.
func (s *Study) Explorer() *explorer.Explorer { return s.exp }

// SetParallelism bounds every worker pool the study's sweeps and Export run
// on: it sets the explorer's Workers, the one copy of the knob. Call it
// before starting sweeps; the knob is not synchronized against sweeps
// already in flight. Results are identical at any setting — only
// wall-clock time changes.
func (s *Study) SetParallelism(n int) { s.exp.Workers = n }

// WithContext returns a shallow copy of the study whose sweeps are bound to
// ctx: once ctx is done, grids stop dispatching cells and in-flight
// organization searches abort at their next candidate. The copy shares the
// explorer (and so its characterization cache) with the receiver, which is
// what lets a server hand every request its own deadline while all requests
// share one warm cache.
func (s *Study) WithContext(ctx context.Context) *Study {
	out := *s
	out.ctx = ctx
	return &out
}

// context returns the bound context (Background when none is bound).
func (s *Study) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// baseline returns the universal denominator (350 K SRAM on namd) and its
// array characterization, under the study's context.
func (s *Study) baseline() (explorer.Evaluation, error) {
	return s.exp.BaselineEvaluation(s.context())
}

// Workloads returns the study's workload registry: every figure and sweep
// that resolves a benchmark name by traffic resolves it here, so a
// workload registered into it feeds them too. Static SPEC names resolve
// through it exactly as through the static table. Copies made by
// WithContext share the registry.
func (s *Study) Workloads() *workload.Registry { return s.workloads }
