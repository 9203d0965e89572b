package job

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coldtall"
	"coldtall/internal/explorer"
	"coldtall/internal/ingest"
	"coldtall/internal/store"
	"coldtall/internal/workload"
)

// newTestManager builds a serial manager over a fresh study.
func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	study := coldtall.NewStudy()
	study.SetParallelism(1)
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	m, err := NewManager(study, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Version: explorer.ModelVersion})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sweepSpec is a small 2x1 grid used across the lifecycle tests.
func sweepSpec() Spec {
	return Spec{
		Kind: KindSweep,
		Points: []explorer.PointSpec{
			{Cell: "SRAM"},
			{Cell: "3T-eDRAM", TemperatureK: 77},
		},
		Benchmarks: []string{"namd"},
	}
}

func waitDone(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := m.WaitFor(ctx, id)
	if err != nil {
		t.Fatalf("job %s did not finish: %v (state %s)", id, err, st.State)
	}
	return st
}

func TestSweepJobLifecycle(t *testing.T) {
	m := newTestManager(t, Options{})
	st0, err := m.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st0.ID == "" || st0.Total != 2 {
		t.Fatalf("submit status = %+v", st0)
	}
	st := waitDone(t, m, st0.ID)
	if st.State != StateDone || st.Done != 2 {
		t.Fatalf("final status = %+v", st)
	}
	body, ctype, ok := m.Result(st.ID)
	if !ok || ctype != "application/json" {
		t.Fatalf("Result: ok=%v ctype=%q", ok, ctype)
	}
	var res sweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Benchmark != "namd" {
		t.Fatalf("sweep result rows = %+v", res.Rows)
	}
}

func TestSubmitIsIdempotent(t *testing.T) {
	m := newTestManager(t, Options{})
	a, err := m.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Errorf("same spec produced different jobs: %s vs %s", a.ID, b.ID)
	}
	if len(m.List()) != 1 {
		t.Errorf("job table holds %d jobs, want 1", len(m.List()))
	}
}

func TestSubmitValidates(t *testing.T) {
	m := newTestManager(t, Options{})
	bad := []Spec{
		{Kind: "nope"},
		{Kind: KindSweep},
		{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "unobtainium"}}},
		{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"not-a-benchmark"}},
		{Kind: KindArtifact},
		{Kind: KindArtifact, Artifact: "not-an-artifact"},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("bad[%d] (%+v) was accepted", i, spec)
		}
	}
}

// TestArtifactJobMatchesStudy: an artifact job's payload is byte-identical
// to rendering the same artifact synchronously — the property the smoke
// test also checks end-to-end over HTTP.
func TestArtifactJobMatchesStudy(t *testing.T) {
	m := newTestManager(t, Options{})
	st0, err := m.Submit(Spec{Kind: KindArtifact, Artifact: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, m, st0.ID)
	if st.State != StateDone {
		t.Fatalf("artifact job state = %s (%s)", st.State, st.Error)
	}
	body, ctype, ok := m.Result(st.ID)
	if !ok || !strings.HasPrefix(ctype, "text/csv") {
		t.Fatalf("Result: ok=%v ctype=%q", ok, ctype)
	}
	var want strings.Builder
	if err := m.study.RenderArtifactCSV(&want, "table1"); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Error("async artifact CSV diverged from the synchronous rendering")
	}
}

// TestRetryBackoff: a cell that fails transiently is retried within the
// attempt budget and the job still completes.
func TestRetryBackoff(t *testing.T) {
	m := newTestManager(t, Options{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond})
	real := m.evalCell
	var calls atomic.Int64
	m.evalCell = func(ctx context.Context, p explorer.DesignPoint, tr workload.Traffic) (explorer.Evaluation, error) {
		if calls.Add(1) <= 2 {
			return explorer.Evaluation{}, errors.New("transient")
		}
		return real(ctx, p, tr)
	}
	st0, err := m.Submit(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"namd"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, m, st0.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done after retries", st.State, st.Error)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("evalCell ran %d times, want 3 (two failures + one success)", got)
	}
}

// TestRetryExhaustionFailsJob: a cell that never succeeds fails the job
// with the attempt count in the message.
func TestRetryExhaustionFailsJob(t *testing.T) {
	m := newTestManager(t, Options{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	m.evalCell = func(ctx context.Context, p explorer.DesignPoint, tr workload.Traffic) (explorer.Evaluation, error) {
		return explorer.Evaluation{}, errors.New("permanent")
	}
	st0, err := m.Submit(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"namd"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, m, st0.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "after 2 attempts") {
		t.Fatalf("status = %+v, want failed after 2 attempts", st)
	}
}

func TestBackoffDelayCaps(t *testing.T) {
	base, max := 25*time.Millisecond, time.Second
	want := []time.Duration{base, 50 * time.Millisecond, 100 * time.Millisecond}
	for i, w := range want {
		if got := Backoff(i+1, base, max, nil); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := Backoff(30, base, max, nil); got != max {
		t.Errorf("deep attempt = %v, want the %v cap", got, max)
	}
}

// TestBackoffJitterSchedule pins the jittered retry schedule exactly: a
// seeded source must reproduce these delays byte-for-byte (math/rand's
// generator is covered by the Go 1 compatibility promise), which is what
// makes flake reports about retry storms reproducible.
func TestBackoffJitterSchedule(t *testing.T) {
	const base, max = 100 * time.Millisecond, 5 * time.Second
	want := []time.Duration{
		57645802,
		135502188,
		218722916,
		542008091,
		991376923,
		2189901870,
		4890811900,
		4254322022,
	}
	rng := rand.New(rand.NewSource(1))
	for i, w := range want {
		if got := Backoff(i+1, base, max, rng); got != w {
			t.Errorf("attempt %d: delay = %v, want %v", i+1, got, w)
		}
	}
}

// TestBackoffJitterBounds: every jittered delay lands in the top half of
// the deterministic schedule ("equal jitter" — at least half the delay,
// never more than the whole of it), so jittered and plain retries run on
// the same curve.
func TestBackoffJitterBounds(t *testing.T) {
	const base, max = 50 * time.Millisecond, 2 * time.Second
	rng := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 12; attempt++ {
		d := Backoff(attempt, base, max, nil)
		for trial := 0; trial < 50; trial++ {
			got := Backoff(attempt, base, max, rng)
			if got < d/2 || got > d {
				t.Fatalf("attempt %d trial %d: delay %v outside [%v, %v]", attempt, trial, got, d/2, d)
			}
		}
		if d > max {
			t.Fatalf("attempt %d: base schedule %v exceeds cap %v", attempt, d, max)
		}
	}
}

// TestCancelMidSweep: cancellation lands while a cell is in flight and the
// job reports cancelled, not failed.
func TestCancelMidSweep(t *testing.T) {
	m := newTestManager(t, Options{})
	entered := make(chan struct{})
	m.evalCell = func(ctx context.Context, p explorer.DesignPoint, tr workload.Traffic) (explorer.Evaluation, error) {
		close(entered)
		<-ctx.Done()
		return explorer.Evaluation{}, ctx.Err()
	}
	st0, err := m.Submit(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"namd"}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if !m.Cancel(st0.ID) {
		t.Fatal("Cancel reported unknown job")
	}
	st := waitDone(t, m, st0.ID)
	if st.State != StateCancelled {
		t.Errorf("state = %s, want cancelled", st.State)
	}
	if m.Cancel("jdeadbeef00000000") {
		t.Error("Cancel of an unknown ID reported true")
	}
}

// TestCrashRecoveryResumesFromCheckpoints is the crash-recovery
// acceptance test: a sweep is killed mid-run (context kill standing in
// for a SIGKILL), a second manager over the same store directory recovers
// it, and the resumed job recomputes only the cells that were never
// checkpointed — counted both at the cell level and as characterize
// (optimizer) invocations.
func TestCrashRecoveryResumesFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Kind: KindSweep,
		Points: []explorer.PointSpec{
			{Cell: "SRAM"}, // the 350 K baseline itself
			{Cell: "SRAM", TemperatureK: 77},
			{Cell: "3T-eDRAM"},
			{Cell: "3T-eDRAM", TemperatureK: 77},
		},
		Benchmarks: []string{"namd"},
	}

	// --- First process: complete 2 of 4 cells, then die. ---
	st1 := openStore(t, dir)
	m1 := newTestManager(t, Options{Store: st1})
	real1 := m1.evalCell
	var calls1 atomic.Int64
	var jobID atomic.Value
	m1.evalCell = func(ctx context.Context, p explorer.DesignPoint, tr workload.Traffic) (explorer.Evaluation, error) {
		if calls1.Add(1) > 2 {
			// The "kill": cancel the job while its third cell is in
			// flight, so exactly two checkpoints reached the store.
			if id, ok := jobID.Load().(string); ok {
				m1.Cancel(id)
			}
			<-ctx.Done()
			return explorer.Evaluation{}, ctx.Err()
		}
		return real1(ctx, p, tr)
	}
	sub, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobID.Store(sub.ID)
	if st := waitDone(t, m1, sub.ID); st.State != StateCancelled {
		t.Fatalf("first run state = %s, want cancelled", st.State)
	}
	checkpoints := 0
	_ = st1.Walk(func(key string, val []byte) error {
		if strings.HasPrefix(key, cellPrefix) {
			checkpoints++
		}
		return nil
	})
	if checkpoints != 2 {
		t.Fatalf("store holds %d cell checkpoints, want 2", checkpoints)
	}
	// A SIGKILL never runs the cancelled transition: the record a real
	// crash leaves behind says "running". Restore that state before the
	// "restart" (the graceful-cancel path above overwrote it).
	rec := record{ID: sub.ID, Spec: spec, State: StateRunning, Done: 2, Total: 4}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Put(recordKey(sub.ID), raw); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// --- Second process: same store dir, cold study, recover. ---
	st2 := openStore(t, dir)
	m2 := newTestManager(t, Options{Store: st2})
	real2 := m2.evalCell
	var calls2 atomic.Int64
	m2.evalCell = func(ctx context.Context, p explorer.DesignPoint, tr workload.Traffic) (explorer.Evaluation, error) {
		calls2.Add(1)
		return real2(ctx, p, tr)
	}
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("Recover re-enqueued %d jobs, want 1", resumed)
	}
	st := waitDone(t, m2, sub.ID)
	if st.State != StateDone || st.Done != 4 {
		t.Fatalf("resumed job status = %+v, want done 4/4", st)
	}
	if st.Resumed != 2 {
		t.Errorf("status.Resumed = %d, want 2 restored cells", st.Resumed)
	}
	if got := calls2.Load(); got != 2 {
		t.Errorf("resumed job evaluated %d cells, want only the 2 missing ones", got)
	}
	// Characterize-invocation count: the two missing points, plus the
	// 350 K SRAM baseline the slowdown check needs (its own checkpointed
	// cell was skipped, so the cold explorer characterizes it once).
	if got := m2.study.Explorer().OptimizeCalls(); got != 3 {
		t.Errorf("resumed job ran the optimizer %d times, want 3 (2 missing points + slowdown baseline)", got)
	}
	body, _, ok := m2.Result(sub.ID)
	if !ok {
		t.Fatal("resumed job has no result")
	}
	var res sweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("resumed result has %d rows, want 4", len(res.Rows))
	}
	// Checkpointed rows carry real physics, not zero values.
	for i, row := range res.Rows {
		if row.TotalPowerW <= 0 {
			t.Errorf("row %d (%s) has non-positive power %v — checkpoint replay lost data", i, row.Point, row.TotalPowerW)
		}
	}
}

// TestRecoverServesFinishedJob: a done job's record and result survive a
// restart — the store-warmed process answers for work a previous process
// did.
func TestRecoverServesFinishedJob(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	m1 := newTestManager(t, Options{Store: st1})
	sub, err := m1.Submit(Spec{Kind: KindArtifact, Artifact: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m1, sub.ID)
	want, _, ok := m1.Result(sub.ID)
	if !ok {
		t.Fatal("first process lost its own result")
	}
	m1.Close()

	st2 := openStore(t, dir)
	m2 := newTestManager(t, Options{Store: st2})
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	status, ok := m2.Get(sub.ID)
	if !ok || status.State != StateDone {
		t.Fatalf("recovered status = %+v, ok=%v", status, ok)
	}
	got, _, ok := m2.Result(sub.ID)
	if !ok {
		t.Fatal("recovered job has no result")
	}
	if string(got) != string(want) {
		t.Error("recovered result diverged from the original")
	}
}

// TestTransitionHookObservesLifecycle: the metrics layer's hook sees every
// state change in order.
func TestTransitionHookObservesLifecycle(t *testing.T) {
	var mu []string
	done := make(chan struct{})
	opts := Options{OnTransition: func(id string, from, to State) {
		mu = append(mu, string(from)+">"+string(to))
		if to.Terminal() {
			close(done)
		}
	}}
	m := newTestManager(t, opts)
	if _, err := m.Submit(Spec{Kind: KindArtifact, Artifact: "table1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("transition hook never saw a terminal state")
	}
	if len(mu) != 2 || mu[0] != "queued>running" || mu[1] != "running>done" {
		t.Errorf("transitions = %v", mu)
	}
}

// ingestSpec is a small synthetic upload used by the ingest-job tests.
func ingestSpec(name string) *ingest.Spec {
	return &ingest.Spec{
		Name: name,
		Generator: &ingest.GeneratorSpec{
			Pattern:         "stream",
			WorkingSetBytes: 64 << 20,
			WriteFrac:       0.25,
			Accesses:        50000,
			Seed:            11,
		},
	}
}

// TestIngestJobLifecycle: an ingest job replays the upload, registers the
// workload, persists its record, and leaves the ingest result as the job
// payload.
func TestIngestJobLifecycle(t *testing.T) {
	reg := workload.NewRegistry()
	st := openStore(t, t.TempDir())
	var hooked atomic.Int64
	m := newTestManager(t, Options{
		Store:     st,
		Workloads: reg,
		OnIngest:  func(res ingest.Result) { hooked.Add(1) },
	})

	sub, err := m.Submit(Spec{Kind: KindIngest, Ingest: ingestSpec("upstream")})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kind != KindIngest || sub.Workload != "upstream" || sub.Total != 50000 {
		t.Fatalf("submit status = %+v", sub)
	}
	fin := waitDone(t, m, sub.ID)
	if fin.State != StateDone || fin.Done != 50000 {
		t.Fatalf("final status = %+v (%s)", fin, fin.Error)
	}
	if hooked.Load() != 1 {
		t.Fatalf("OnIngest fired %d times", hooked.Load())
	}

	body, ctype, ok := m.Result(sub.ID)
	if !ok || ctype != "application/json" {
		t.Fatalf("Result: ok=%v ctype=%q", ok, ctype)
	}
	var res ingest.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	src, ok := reg.Lookup("upstream")
	if !ok || src != res.Source {
		t.Fatalf("registry source %+v does not match job payload %+v", src, res.Source)
	}
	if _, ok := st.Get(ingest.WorkloadKeyPrefix + "upstream"); !ok {
		t.Fatal("workload record not persisted")
	}

	// Resubmitting the identical spec reuses the finished job.
	again, err := m.Submit(Spec{Kind: KindIngest, Ingest: ingestSpec("upstream")})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != sub.ID {
		t.Fatalf("resubmission created a new job: %s vs %s", again.ID, sub.ID)
	}
}

// TestIngestJobRequiresRegistry: managers without a registry reject ingest
// work up front.
func TestIngestJobRequiresRegistry(t *testing.T) {
	m := newTestManager(t, Options{})
	if _, err := m.Submit(Spec{Kind: KindIngest, Ingest: ingestSpec("x")}); err == nil {
		t.Fatal("ingest accepted without a registry")
	}
	if _, err := m.Submit(Spec{Kind: KindIngest}); err == nil {
		t.Fatal("ingest accepted without a spec")
	}
}

// TestWorkloadArtifactJobMatchesSync: an artifact job restricted to an
// ingested workload produces bytes identical to the per-workload table's
// CSV rendering — the acceptance property for the ingestion loop.
func TestWorkloadArtifactJobMatchesSync(t *testing.T) {
	reg := workload.NewRegistry()
	m := newTestManager(t, Options{Workloads: reg})

	sub, err := m.Submit(Spec{Kind: KindIngest, Ingest: ingestSpec("mine")})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, m, sub.ID); fin.State != StateDone {
		t.Fatalf("ingest failed: %+v", fin)
	}

	art, err := m.Submit(Spec{Kind: KindArtifact, Artifact: "fig5", Workload: "mine"})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, m, art.ID); fin.State != StateDone {
		t.Fatalf("artifact job failed: %+v", fin)
	}
	body, ctype, ok := m.Result(art.ID)
	if !ok || !strings.HasPrefix(ctype, "text/csv") {
		t.Fatalf("Result: ok=%v ctype=%q", ok, ctype)
	}
	tab, err := m.study.WorkloadArtifactTable("fig5", "mine")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := tab.RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Error("async per-workload artifact diverged from the synchronous rendering")
	}

	// Restricting a workload-independent artifact is rejected at submit.
	if _, err := m.Submit(Spec{Kind: KindArtifact, Artifact: "fig1", Workload: "mine"}); err == nil {
		t.Fatal("fig1 accepted a workload restriction")
	}
	// Unknown workloads are rejected at submit.
	if _, err := m.Submit(Spec{Kind: KindArtifact, Artifact: "fig5", Workload: "ghost"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
