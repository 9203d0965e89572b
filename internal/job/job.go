// Package job is the async sweep subsystem: long-running work (evaluation
// grids, artifact builds) submitted once, identified by a deterministic job
// ID, executed on background workers, and observable while it runs. Job
// records, results and every array characterization persist through the
// result store (internal/store), so a killed process resumes a
// half-finished sweep from the characterizations it had already paid for;
// cancellation propagates through the repository's context plumbing.
// Standard library only.
package job

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"coldtall/internal/array"
	"coldtall/internal/explorer"
	"coldtall/internal/ingest"
	"coldtall/internal/store"
	"coldtall/internal/workload"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is one of the five known states (used when
// re-reading persisted records, which may come from a newer or corrupted
// file).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// ParseState validates a state string arriving from the API surface
// (the ?state= listing filter).
func ParseState(s string) (State, error) {
	if st := State(s); st.valid() {
		return st, nil
	}
	return "", fmt.Errorf("job: unknown state %q (want %s, %s, %s, %s, or %s)",
		s, StateQueued, StateRunning, StateDone, StateFailed, StateCancelled)
}

// Kind discriminates what a job computes.
const (
	// KindSweep evaluates a points x benchmarks grid (the async form of
	// POST /v1/sweep).
	KindSweep = "sweep"
	// KindArtifact builds one registry artifact as CSV (the async form of
	// GET /v1/artifacts/{name}?format=csv, byte-identical to it).
	KindArtifact = "artifact"
	// KindIngest runs one workload ingestion (the async form of
	// POST /v1/workloads): materialize, replay, register.
	KindIngest = "ingest"
	// KindCharacterize characterizes one design point (Points[0]; the
	// async form of POST /v1/characterize, byte-identical to it).
	KindCharacterize = "characterize"
	// KindEvaluate evaluates one (Points[0], Benchmarks[0]) cell (the
	// async form of POST /v1/evaluate, byte-identical to it).
	KindEvaluate = "evaluate"
	// KindDistill fits a compact generator spec to the Workload's stored
	// trace (the async form of POST /v1/workloads/{name}/distill).
	KindDistill = "distill"
)

// Class is a job's scheduling priority class. Interactive jobs — the
// async forms of the sub-second request/response endpoints — always
// dispatch ahead of queued bulk work, so one tenant's grid sweep cannot
// delay another tenant's single characterization.
type Class string

const (
	ClassInteractive Class = "interactive"
	ClassBulk        Class = "bulk"
)

// Class derives the priority class from the kind: characterize and
// evaluate are interactive; sweep, artifact and ingest are bulk.
func (sp Spec) Class() Class {
	switch sp.Kind {
	case KindCharacterize, KindEvaluate:
		return ClassInteractive
	}
	return ClassBulk
}

// Spec describes a job. Equal specs canonicalize to equal job IDs, so
// resubmitting the same work returns the existing job instead of queueing a
// duplicate.
type Spec struct {
	// Kind selects the computation (KindSweep, KindArtifact, ...).
	Kind string `json:"kind"`

	// Points and Benchmarks define the design-point grid of the
	// characterize (one point), evaluate (one point, one benchmark) and
	// sweep kinds; an empty sweep benchmark list means all static
	// benchmarks. Grid interprets them.
	Points     []explorer.PointSpec `json:"points,omitempty"`
	Benchmarks []string             `json:"benchmarks,omitempty"`

	// Artifact names a registry artifact (Kind == "artifact").
	Artifact string `json:"artifact,omitempty"`

	// Workload, when set on an artifact job, restricts a traffic-dependent
	// artifact to one workload (static or ingested) instead of the full
	// suite; on a distill job it names the workload to distill.
	Workload string `json:"workload,omitempty"`

	// Ingest is the ingestion request (Kind == "ingest").
	Ingest *ingest.Spec `json:"ingest,omitempty"`
}

// sweepGridLimit bounds a sweep's grid, synchronous or async: requests
// beyond it are a client error, not a reason to let a single call
// monopolize the pool.
const sweepGridLimit = 64

// ValidateWith checks the spec, resolving benchmark/workload names through
// resolve. Design-point kinds are checked by Grid, the same interpretation
// the synchronous endpoints apply.
func (sp Spec) ValidateWith(resolve func(string) (workload.Traffic, error)) error {
	switch sp.Kind {
	case KindSweep, KindCharacterize, KindEvaluate:
		if _, _, err := sp.Grid(resolve); err != nil {
			return fmt.Errorf("job: %w", err)
		}
		return nil
	case KindArtifact:
		if sp.Artifact == "" {
			return fmt.Errorf("job: artifact job needs an artifact name")
		}
		if sp.Workload != "" {
			if _, err := resolve(sp.Workload); err != nil {
				return fmt.Errorf("job: workload: %w", err)
			}
		}
		return nil
	case KindIngest:
		if sp.Ingest == nil {
			return fmt.Errorf("job: ingest job needs an ingest spec")
		}
		return sp.Ingest.Validate()
	case KindDistill:
		if sp.Workload == "" {
			return fmt.Errorf("job: distill job needs a workload name")
		}
		if _, err := resolve(sp.Workload); err != nil {
			return fmt.Errorf("job: workload: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("job: unknown kind %q (want %q, %q, %q, %q, %q, or %q)", sp.Kind, KindSweep, KindArtifact, KindIngest, KindCharacterize, KindEvaluate, KindDistill)
	}
}

// Grid interprets a characterize, evaluate or sweep spec: it parses the
// design points and resolves the benchmark names through resolve, an empty
// sweep benchmark list meaning every static benchmark. Both the
// synchronous endpoints and the job runners call it, so the two surfaces
// accept the same requests and reject the rest with the same messages.
func (sp Spec) Grid(resolve func(string) (workload.Traffic, error)) ([]explorer.DesignPoint, []workload.Traffic, error) {
	switch sp.Kind {
	case KindCharacterize:
		if len(sp.Points) != 1 {
			return nil, nil, fmt.Errorf("characterize needs exactly one design point")
		}
	case KindEvaluate:
		if len(sp.Points) != 1 || len(sp.Benchmarks) != 1 {
			return nil, nil, fmt.Errorf("evaluate needs exactly one design point and one benchmark")
		}
	case KindSweep:
		if len(sp.Points) == 0 {
			return nil, nil, fmt.Errorf("sweep needs at least one design point")
		}
		if len(sp.Points) > sweepGridLimit || len(sp.Benchmarks) > sweepGridLimit {
			return nil, nil, fmt.Errorf("sweep grid too large: at most %d points and %d benchmarks per request", sweepGridLimit, sweepGridLimit)
		}
	default:
		return nil, nil, fmt.Errorf("a %s job has no design-point grid", sp.Kind)
	}
	// A sweep names the offending list element; the single-point kinds
	// report the parse or lookup error as is.
	at := func(list string, i int, err error) error {
		if sp.Kind == KindSweep {
			return fmt.Errorf("%s[%d]: %w", list, i, err)
		}
		return err
	}
	points := make([]explorer.DesignPoint, len(sp.Points))
	for i, spec := range sp.Points {
		p, err := explorer.ParsePoint(spec)
		if err != nil {
			return nil, nil, at("points", i, err)
		}
		points[i] = p
	}
	if sp.Kind == KindCharacterize {
		return points, nil, nil
	}
	if len(sp.Benchmarks) == 0 {
		return points, workload.StaticTraffic(), nil
	}
	traffics := make([]workload.Traffic, len(sp.Benchmarks))
	for i, name := range sp.Benchmarks {
		tr, err := resolve(name)
		if err != nil {
			return nil, nil, at("benchmarks", i, err)
		}
		traffics[i] = tr
	}
	return points, traffics, nil
}

// Cells is the spec's size in grid cells: points x benchmarks for a sweep
// (an empty benchmark list counting every static benchmark, as in Grid),
// one for every other kind. It is a job's initial progress total and the
// price tenant budgets charge for a sweep.
func (sp Spec) Cells() int {
	if sp.Kind != KindSweep {
		return 1
	}
	benches := len(sp.Benchmarks)
	if benches == 0 {
		benches = len(workload.StaticTraffic())
	}
	return len(sp.Points) * benches
}

// id derives the deterministic job ID: "j" plus 16 hex characters of the
// SHA-256 over the canonical spec rendering. Content-addressed IDs make
// submission idempotent and give a restarted process the same name for the
// same work.
func (sp Spec) id() string {
	canon := struct {
		Kind       string               `json:"kind"`
		Points     []explorer.PointSpec `json:"points,omitempty"`
		Benchmarks []string             `json:"benchmarks,omitempty"`
		Artifact   string               `json:"artifact,omitempty"`
		Workload   string               `json:"workload,omitempty"`
		Ingest     *ingest.Spec         `json:"ingest,omitempty"`
	}{sp.Kind, sp.Points, sp.Benchmarks, sp.Artifact, sp.Workload, sp.Ingest}
	b, err := json.Marshal(canon)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it. Guard anyway.
		b = []byte(fmt.Sprintf("%#v", sp))
	}
	sum := sha256.Sum256(b)
	return "j" + hex.EncodeToString(sum[:8])
}

// Status is a point-in-time snapshot of a job, JSON-shaped for the
// /v1/jobs endpoints.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Done and Total report progress in grid cells (artifact jobs are a
	// single cell).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the failure message in state "failed".
	Error string `json:"error,omitempty"`
	// Artifact names the artifact for artifact jobs.
	Artifact string `json:"artifact,omitempty"`
	// Workload names the restricting workload on artifact jobs, or the
	// registered workload on ingest jobs.
	Workload string `json:"workload,omitempty"`
	// Tenant names the submitting tenant; empty for jobs submitted
	// before multi-tenancy or through the tenantless Submit path.
	Tenant string `json:"tenant,omitempty"`
	// Class is the scheduling priority class derived from the kind.
	Class Class `json:"class,omitempty"`
}

// record is the persisted form of a job (store key "job|<id>"). The result
// payload is stored separately under "jobresult|<id>" so status reads stay
// small.
type record struct {
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	State  State  `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Error  string `json:"error,omitempty"`
	CType  string `json:"content_type,omitempty"`
	HasRes bool   `json:"has_result,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// Store key namespaces. Job bookkeeping shares the result store with the
// ingest and distill records; prefixes keep them disjoint. Stores written
// by older versions may also hold "jobcell|" sweep checkpoints and
// "resp|" response bodies; nothing reads them.
const (
	recordPrefix = "job|"
	resultPrefix = "jobresult|"
	// charPrefix namespaces persisted array characterizations. The store
	// golden test pins this prefix: changing it orphans every persisted
	// characterization.
	charPrefix = "char|"
)

func recordKey(id string) string { return recordPrefix + id }
func resultKey(id string) string { return resultPrefix + id }

// charTier adapts the store to the characterization cache's Tier:
// characterizations are gob-encoded (JSON cannot carry the +Inf retention
// of static cells) under char| + the canonical design-point key, stamped
// with explorer.ModelVersion by the store itself.
type charTier struct{ st *store.Store }

func (c charTier) Load(key string) (array.Result, bool) {
	raw, ok := c.st.Get(charPrefix + key)
	if !ok {
		return array.Result{}, false
	}
	var r array.Result
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&r); err != nil {
		return array.Result{}, false
	}
	return r, true
}

func (c charTier) Store(key string, r array.Result) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(r); err != nil {
		return
	}
	// Best-effort by the Tier contract: a failed write costs a future
	// recomputation, nothing else.
	_ = c.st.Put(charPrefix+key, b.Bytes())
}

// sortStatuses orders job listings deterministically by ID.
func sortStatuses(list []Status) {
	sort.Slice(list, func(i, j int) bool { return strings.Compare(list[i].ID, list[j].ID) < 0 })
}
