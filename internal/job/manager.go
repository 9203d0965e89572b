package job

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"

	"coldtall"
	"coldtall/internal/distill"
	"coldtall/internal/ingest"
	"coldtall/internal/signature"
	"coldtall/internal/store"
	"coldtall/internal/workload"
)

// Options tunes a Manager. The zero value of every field selects a
// production-reasonable default.
type Options struct {
	// Store is the persistence layer for job records, results and the
	// study's characterizations (the char| tier NewManager attaches); nil
	// runs jobs in memory only (no crash recovery).
	Store *store.Store
	// Sigs is the locality-signature index ingest jobs dedup against and
	// distill jobs read fitted signatures from; nil gives the manager an
	// index of its own.
	Sigs *signature.Index
	// OnTransition, when set, observes every state change (the metrics
	// layer feeds job counters from it). Called outside the job lock.
	OnTransition func(id string, from, to State)
	// OnIngest, when set, observes every completed ingestion (the metrics
	// layer feeds upload histograms from it).
	OnIngest func(res ingest.Result)
	// Logger receives job lifecycle lines; nil discards them.
	Logger *log.Logger
	// MaxConcurrent bounds how many jobs run at once (default 2); the
	// rest wait in the scheduler's queues. Each running job still fans
	// its work across the study's worker pool (Study.SetParallelism).
	MaxConcurrent int
	// TenantWeight resolves a tenant name to its fair-share weight for
	// DRR dispatch; nil weights every tenant 1.
	TenantWeight func(tenant string) float64
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 2
	}
	if o.Sigs == nil {
		o.Sigs = signature.NewIndex()
	}
	return o
}

// ErrQuota is returned by SubmitAs when creating a new job would exceed
// the tenant's concurrent-job quota. Resubmitting an existing spec never
// trips it: idempotent lookups create no new work.
var ErrQuota = errors.New("job: tenant concurrent-job quota exhausted")

// Job is one submitted computation. All fields are guarded by mu; read
// through Status.
type Job struct {
	id     string
	spec   Spec
	tenant string // owner: the first submitter; immutable after creation

	mu     sync.Mutex
	state  State
	done   int
	total  int
	errMsg string
	result []byte
	ctype  string

	cancel    context.CancelFunc
	killEarly bool // cancelled while queued, racing with dispatch
	fin       chan struct{}

	// subs are the live progress subscribers (SSE / long-poll). Each
	// channel is buffered one deep and written latest-wins, so a slow
	// reader sees a coalesced status stream, never a backlog.
	subs   map[int]chan Status
	subSeq int
}

// Manager owns the job table and the background workers. Construct with
// NewManager; safe for concurrent use.
type Manager struct {
	study *coldtall.Study
	opts  Options

	mu   sync.Mutex
	jobs map[string]*Job
	wg   sync.WaitGroup

	sched *scheduler

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// NewManager builds a manager over a study. The study's explorer (and so
// its characterization cache) is shared with the synchronous request path,
// so async and sync work warm each other, and so is its workload registry:
// ingest jobs register into it and every job resolves names through it.
// With a Store, NewManager backs that cache with the store's char|
// namespace: every characterization a job or request computes is durable,
// which is all a restarted sweep needs to resume without re-running the
// optimizer.
func NewManager(study *coldtall.Study, opts Options) (*Manager, error) {
	if study == nil {
		return nil, fmt.Errorf("job: study must not be nil")
	}
	if opts.Store != nil {
		study.Explorer().SetPersistence(charTier{opts.Store})
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		study:      study,
		opts:       opts.withDefaults(),
		jobs:       make(map[string]*Job),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	m.sched = newScheduler(m.opts.MaxConcurrent, m.opts.TenantWeight)
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logger != nil {
		m.opts.Logger.Printf(format, args...)
	}
}

// SubmitAs validates the spec and enqueues (or finds) its job on behalf
// of a tenant. Submission is idempotent: the same spec maps to the same
// deterministic ID, and a live or completed job under that ID is returned
// as-is rather than re-run. owner is recorded on the job (and keyed into
// fair-share dispatch; "" is the anonymous owner), and maxLive, when > 0,
// caps the tenant's live (non-terminal) jobs — creating a job beyond the
// cap returns ErrQuota. created reports whether this call queued new
// work, so callers charging compute budgets can refund duplicate
// submissions.
func (m *Manager) SubmitAs(spec Spec, owner string, maxLive int) (st Status, created bool, err error) {
	if err := spec.ValidateWith(m.study.Workloads().Traffic); err != nil {
		return Status{}, false, err
	}
	switch spec.Kind {
	case KindArtifact:
		if _, ok := coldtall.Artifacts().Lookup(spec.Artifact); !ok {
			return Status{}, false, fmt.Errorf("job: unknown artifact %q", spec.Artifact)
		}
		if spec.Workload != "" && !coldtall.IsTrafficArtifact(spec.Artifact) {
			return Status{}, false, fmt.Errorf("job: artifact %q is workload-independent (per-workload artifacts: %v)", spec.Artifact, coldtall.TrafficArtifactNames())
		}
	case KindDistill:
		// Refuse undistillable workloads at submit time, so the client
		// gets a synchronous 4xx instead of a queued job that fails.
		if src, ok := m.study.Workloads().Lookup(spec.Workload); ok {
			switch src.Kind {
			case workload.SourceStatic:
				return Status{}, false, fmt.Errorf("job: %q is a static benchmark with no stored trace to distill", spec.Workload)
			case workload.SourceAlias:
				return Status{}, false, fmt.Errorf("job: %q is an alias; distill its canonical workload %q instead", spec.Workload, src.AliasOf)
			}
		}
	}
	id := spec.id()
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return j.Status(), false, nil
	}
	if maxLive > 0 && m.liveJobsLocked(owner) >= maxLive {
		m.mu.Unlock()
		return Status{}, false, ErrQuota
	}
	j := m.newJob(id, spec)
	j.tenant = owner
	m.jobs[id] = j
	m.mu.Unlock()
	m.enqueue(j)
	return j.Status(), true, nil
}

// liveJobsLocked counts owner's non-terminal jobs; m.mu must be held.
func (m *Manager) liveJobsLocked(owner string) int {
	n := 0
	for _, j := range m.jobs {
		if j.tenant != owner {
			continue
		}
		j.mu.Lock()
		if !j.state.Terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func (m *Manager) newJob(id string, spec Spec) *Job {
	total := spec.Cells()
	if spec.Kind == KindIngest && spec.Ingest != nil && spec.Ingest.Generator != nil {
		// Generator specs know their length up front; trace uploads learn
		// theirs at the first progress report.
		total = spec.Ingest.Generator.Accesses
	}
	return &Job{id: id, spec: spec, state: StateQueued, total: total, fin: make(chan struct{})}
}

// enqueue persists the queued record, hands the table-resident job to
// the scheduler and kicks the dispatcher. With a free slot the job starts
// immediately (a single queued job behaves exactly like the old direct
// start), otherwise it waits its fair-share turn.
func (m *Manager) enqueue(j *Job) {
	j.mu.Lock()
	rec := j.recordLocked(j.state)
	j.mu.Unlock()
	m.persist(rec)
	m.sched.add(j)
	m.dispatch()
}

// dispatch launches scheduler picks until the slots are full or the
// queues are empty. It runs inline on submit and again on every job
// completion, so there is no dispatcher goroutine to drain at shutdown.
func (m *Manager) dispatch() {
	for {
		j := m.sched.pick()
		if j == nil {
			return
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.mu.Lock()
		j.cancel = cancel
		killed := j.killEarly
		j.mu.Unlock()
		if killed {
			// Cancelled after pick but before the context existed.
			cancel()
		}
		m.wg.Add(1)
		go func(j *Job, ctx context.Context, cancel context.CancelFunc) {
			defer m.wg.Done()
			defer cancel()
			m.run(ctx, j)
			m.sched.done()
			m.dispatch()
		}(j, ctx, cancel)
	}
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (Status, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return j.Status(), true
}

// Result returns a done job's result payload and content type.
func (m *Manager) Result(id string) ([]byte, string, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, "", false
	}
	j.mu.Lock()
	res, ctype, state := j.result, j.ctype, j.state
	j.mu.Unlock()
	if state != StateDone {
		return nil, "", false
	}
	if res == nil && m.opts.Store != nil {
		// A recovered job: the record survived the restart, the payload
		// lives in the store.
		if b, ok := m.opts.Store.Get(resultKey(id)); ok {
			res = b
			j.mu.Lock()
			j.result = b
			j.mu.Unlock()
		}
	}
	if res == nil {
		return nil, "", false
	}
	return res, ctype, true
}

// List returns every known job's status, ordered by ID.
func (m *Manager) List() []Status {
	m.mu.Lock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.Status())
	}
	m.mu.Unlock()
	sortStatuses(out)
	return out
}

// ListQuery filters and pages a job listing.
type ListQuery struct {
	// State keeps only jobs in that state; empty keeps all.
	State State
	// Limit caps the page size; <= 0 returns everything.
	Limit int
	// Cursor resumes after a previous page: only IDs strictly greater
	// are returned. IDs are content-addressed, so the order is stable
	// across calls and restarts.
	Cursor string
}

// ListPage returns one filtered, ID-ordered page. next is the cursor
// for the following page, empty when this page ends the listing.
func (m *Manager) ListPage(q ListQuery) (page []Status, next string) {
	page = []Status{}
	for _, st := range m.List() {
		if q.State != "" && st.State != q.State {
			continue
		}
		if q.Cursor != "" && st.ID <= q.Cursor {
			continue
		}
		if q.Limit > 0 && len(page) == q.Limit {
			return page, page[len(page)-1].ID
		}
		page = append(page, st)
	}
	return page, ""
}

// Cancel requests cancellation of a running or queued job. It reports
// whether the job exists; cancelling a finished job is a no-op. A job
// still waiting in the scheduler is withdrawn and goes terminal without
// ever running.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	cancel := j.cancel
	terminal := j.state.Terminal()
	if !terminal && cancel == nil {
		// Not yet dispatched: flag the race window so a concurrent
		// dispatch cancels the context it is about to create.
		j.killEarly = true
	}
	j.mu.Unlock()
	switch {
	case terminal:
	case cancel != nil:
		cancel()
	case m.sched.remove(j):
		// Withdrawn before dispatch: no goroutine will run it, so the
		// terminal transition happens here.
		m.transition(j, StateCancelled)
		m.logf("job %s: cancelled while queued", j.id)
	}
	return true
}

// Wait blocks until every running job finishes or ctx expires — the
// server's drain path. Every characterization a sweep completed is already
// in the store, so a drain that times out loses no optimizer work: Close
// cancels the stragglers and a restart resumes them from the store.
func (m *Manager) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every queued and running job and waits for the running
// goroutines. The manager accepts no new work afterwards (submissions
// run under a cancelled base context and finish as cancelled). Queued
// jobs are withdrawn and go terminal as cancelled without running, so
// their waiters and progress subscribers unblock before the wait.
func (m *Manager) Close() {
	for _, j := range m.sched.drainAll() {
		m.transition(j, StateCancelled)
	}
	m.baseCancel()
	m.wg.Wait()
}

// Recover replays persisted job records after a restart: finished jobs
// become queryable again (their results served from the store), and jobs
// that were queued or running when the process died are re-enqueued; a
// re-run sweep reads every point it had characterized from the store.
// Returns the number of re-enqueued jobs.
func (m *Manager) Recover() (int, error) {
	if m.opts.Store == nil {
		return 0, nil
	}
	var resumed []*Job
	err := m.opts.Store.Walk(recordPrefix, func(key string, val []byte) error {
		id := strings.TrimPrefix(key, recordPrefix)
		var rec record
		if err := json.Unmarshal(val, &rec); err != nil || rec.ID != id || !rec.State.valid() {
			return nil // unreadable record: skip, never poison the table
		}
		m.mu.Lock()
		_, exists := m.jobs[id]
		if exists {
			m.mu.Unlock()
			return nil
		}
		j := m.newJob(id, rec.Spec)
		j.tenant = rec.Tenant
		j.ctype = rec.CType
		if rec.State.Terminal() {
			j.state = rec.State
			j.done, j.errMsg = rec.Done, rec.Error
			close(j.fin)
		} else {
			// The process died mid-job; run it again.
			j.state = StateQueued
			resumed = append(resumed, j)
		}
		m.jobs[id] = j
		m.mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("job: recover: %w", err)
	}
	for _, j := range resumed {
		m.logf("job %s: resuming after restart", j.id)
		m.enqueue(j)
	}
	return len(resumed), nil
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	wl := j.spec.Workload
	if j.spec.Kind == KindIngest && j.spec.Ingest != nil {
		wl = j.spec.Ingest.Name
	}
	return Status{
		ID:       j.id,
		Kind:     j.spec.Kind,
		State:    j.state,
		Done:     j.done,
		Total:    j.total,
		Error:    j.errMsg,
		Artifact: j.spec.Artifact,
		Workload: wl,
		Tenant:   j.tenant,
		Class:    j.spec.Class(),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.fin }

// Subscription is one live status stream over a job. C delivers
// coalesced snapshots: the channel is one deep and written latest-wins,
// so a reader that falls behind skips intermediate progress but always
// observes the terminal status (nothing is written after it).
type Subscription struct {
	// C carries status snapshots, primed with the state at subscribe
	// time.
	C <-chan Status

	j   *Job
	key int
}

// Done is closed when the job reaches a terminal state.
func (s *Subscription) Done() <-chan struct{} { return s.j.Done() }

// Status snapshots the job directly (for post-terminal reads).
func (s *Subscription) Status() Status { return s.j.Status() }

// Close detaches the subscriber. Safe to call more than once.
func (s *Subscription) Close() {
	s.j.mu.Lock()
	delete(s.j.subs, s.key)
	s.j.mu.Unlock()
}

// Subscribe opens a status stream over the job with id. The first
// receive is the current status; later receives are pushed on every
// progress or state change.
func (m *Manager) Subscribe(id string) (*Subscription, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	ch := make(chan Status, 1)
	ch <- j.Status()
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[int]chan Status)
	}
	key := j.subSeq
	j.subSeq++
	j.subs[key] = ch
	j.mu.Unlock()
	return &Subscription{C: ch, j: j, key: key}, true
}

// notify pushes the current status to every subscriber, latest-wins: a
// full channel is drained before the push so the reader's next receive
// is always the newest snapshot.
func (j *Job) notify() {
	j.mu.Lock()
	if len(j.subs) == 0 {
		j.mu.Unlock()
		return
	}
	chans := make([]chan Status, 0, len(j.subs))
	for _, ch := range j.subs {
		chans = append(chans, ch)
	}
	j.mu.Unlock()
	st := j.Status()
	for _, ch := range chans {
		select {
		case ch <- st:
			continue
		default:
		}
		select {
		case <-ch:
		default:
		}
		select {
		case ch <- st:
		default:
		}
	}
}

// transition moves the job to a new state: persist, then publish. The
// record with the new state is written before Status or any subscriber
// can see that state, so a client that observes a state finds it on
// disk. The observation hook runs last.
func (m *Manager) transition(j *Job, to State) {
	j.mu.Lock()
	from := j.state
	rec := j.recordLocked(to)
	j.mu.Unlock()
	m.persist(rec)
	j.mu.Lock()
	j.state = to
	j.mu.Unlock()
	j.notify()
	if m.opts.OnTransition != nil && from != to {
		m.opts.OnTransition(j.id, from, to)
	}
	if to.Terminal() {
		close(j.fin)
	}
}

// recordLocked is the job's persisted form in the given state; j.mu must
// be held.
func (j *Job) recordLocked(state State) record {
	return record{
		ID: j.id, Spec: j.spec, State: state,
		Done: j.done, Total: j.total, Error: j.errMsg,
		CType: j.ctype, HasRes: j.result != nil,
		Tenant: j.tenant,
	}
}

// persist writes a job record through the store (best-effort: job
// bookkeeping must never fail a computation). Records are written only on
// state transitions; progress lives in memory, since Recover re-runs a
// non-terminal job from the start.
func (m *Manager) persist(rec record) {
	if m.opts.Store == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if err := m.opts.Store.Put(recordKey(rec.ID), b); err != nil {
		m.logf("job %s: persist record: %v", rec.ID, err)
	}
}

// run executes the job to a terminal state.
func (m *Manager) run(ctx context.Context, j *Job) {
	m.transition(j, StateRunning)
	var err error
	switch j.spec.Kind {
	case KindSweep:
		err = m.runSweep(ctx, j)
	case KindArtifact:
		err = m.runArtifact(ctx, j)
	case KindIngest:
		err = m.runIngest(ctx, j)
	case KindCharacterize:
		err = m.runCharacterize(ctx, j)
	case KindEvaluate:
		err = m.runEvaluate(ctx, j)
	case KindDistill:
		err = m.runDistill(ctx, j)
	default:
		err = fmt.Errorf("job: unknown kind %q", j.spec.Kind)
	}
	switch {
	case err == nil:
		m.transition(j, StateDone)
		m.logf("job %s: done", j.id)
	case ctx.Err() != nil:
		m.transition(j, StateCancelled)
		m.logf("job %s: cancelled", j.id)
	default:
		j.mu.Lock()
		j.errMsg = err.Error()
		j.mu.Unlock()
		m.transition(j, StateFailed)
		m.logf("job %s: failed: %v", j.id, err)
	}
}

// setResult records the payload and completes the job's progress before
// the done transition persists it.
func (m *Manager) setResult(j *Job, body []byte, ctype string) {
	j.mu.Lock()
	j.result, j.ctype = body, ctype
	j.done = j.total
	j.mu.Unlock()
	if m.opts.Store != nil {
		if err := m.opts.Store.Put(resultKey(j.id), body); err != nil {
			m.logf("job %s: persist result: %v", j.id, err)
		}
	}
}

// runArtifact builds one registry artifact as CSV (restricted to the
// spec's workload when set) through ArtifactCSV, the renderer the
// synchronous artifact routes serve, so the payloads are byte-identical.
func (m *Manager) runArtifact(ctx context.Context, j *Job) error {
	body, err := ArtifactCSV(m.study.WithContext(ctx), j.spec.Artifact, j.spec.Workload)
	if err != nil {
		return err
	}
	m.setResult(j, body, "text/csv; charset=utf-8")
	return nil
}

// runIngest executes one workload ingestion. Progress is reported in
// accesses replayed (one unit per access, advancing in trace-block-sized
// steps) to subscribers; a restarted process re-runs the ingestion, which
// is safe because ingest.Run is idempotent. The job's result payload is
// the ingest result JSON.
func (m *Manager) runIngest(ctx context.Context, j *Job) error {
	res, err := ingest.Run(ctx, *j.spec.Ingest, ingest.Options{
		Workloads: m.study.Workloads(),
		Store:     m.opts.Store,
		Sigs:      m.opts.Sigs,
		OnProgress: func(done, total uint64) {
			j.mu.Lock()
			j.done, j.total = int(done), int(total)
			j.mu.Unlock()
			j.notify()
		},
	})
	if err != nil {
		return err
	}
	if m.opts.OnIngest != nil {
		m.opts.OnIngest(res)
	}
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	m.setResult(j, body, "application/json")
	return nil
}

// runDistill fits a generator spec to the workload's stored trace. The
// fit is deterministic and idempotent (re-running an accepted distill
// re-derives the same spec from the persisted signature), so crashed
// distill jobs can simply be re-run. The job's result payload is the
// distill result JSON.
func (m *Manager) runDistill(ctx context.Context, j *Job) error {
	res, err := distill.Run(ctx, j.spec.Workload, m.study.Workloads(), m.opts.Store, m.opts.Sigs)
	if err != nil {
		return err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	m.setResult(j, body, "application/json")
	return nil
}

// runCharacterize computes one design point's characterization — the
// interactive job class's cheapest unit of work (one optimizer search,
// warm from the shared explorer cache when the sync path already did it).
func (m *Manager) runCharacterize(ctx context.Context, j *Job) error {
	points, _, err := j.spec.Grid(m.study.Workloads().Traffic)
	if err != nil {
		return err
	}
	res, err := m.study.Explorer().CharacterizeContext(ctx, points[0])
	if err != nil {
		return err
	}
	body, err := CharacterizeJSON(points[0], res)
	if err != nil {
		return err
	}
	m.setResult(j, body, "application/json")
	return nil
}

// runEvaluate computes one (point, benchmark) cell.
func (m *Manager) runEvaluate(ctx context.Context, j *Job) error {
	points, traffics, err := j.spec.Grid(m.study.Workloads().Traffic)
	if err != nil {
		return err
	}
	ev, err := m.study.Explorer().EvaluateContext(ctx, points[0], traffics[0])
	if err != nil {
		return err
	}
	body, err := EvaluateJSON(ev)
	if err != nil {
		return err
	}
	m.setResult(j, body, "application/json")
	return nil
}

// runSweep evaluates the grid through explorer.EvaluateAllProgress, the
// engine the synchronous /v1/sweep runs, so the payloads are
// byte-identical. The job keeps no state of its own: a re-run after a
// crash finds every point the dead process characterized in the store.
// Progress goes to subscribers only; it is never written to the store.
func (m *Manager) runSweep(ctx context.Context, j *Job) error {
	points, traffics, err := j.spec.Grid(m.study.Workloads().Traffic)
	if err != nil {
		return err
	}
	grid, err := m.study.Explorer().EvaluateAllProgress(ctx, points, traffics, func(done int) {
		j.mu.Lock()
		if done > j.done {
			j.done = done
		}
		j.mu.Unlock()
		j.notify()
	})
	if err != nil {
		return err
	}
	body, err := SweepJSON(grid)
	if err != nil {
		return err
	}
	m.setResult(j, body, "application/json")
	return nil
}
