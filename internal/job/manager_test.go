package job

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coldtall"
	"coldtall/internal/array"
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

// familySweepSpec spans four characterization families (SRAM, 3T-eDRAM,
// PCM, STT-RAM) at mixed temperatures and die counts, over two benchmarks.
func familySweepSpec() Spec {
	return Spec{
		Kind: KindSweep,
		Points: []explorer.PointSpec{
			{Cell: "SRAM", TemperatureK: 77, Dies: 2},
			{Cell: "PCM", Dies: 4},
			{Cell: "3T-eDRAM", TemperatureK: 77},
			{Cell: "SRAM"},
			{Cell: "STT-RAM", TemperatureK: 200, Dies: 8},
			{Cell: "3T-eDRAM", TemperatureK: 150, Dies: 2},
		},
		Benchmarks: []string{"namd", "mcf"},
	}
}

// TestSweepJobMatchesEvaluateAll: an async sweep job on a two-worker pool
// returns exactly the bytes of the in-process sweep (Explorer.EvaluateAll
// on a fresh explorer) over the same grid.
func TestSweepJobMatchesEvaluateAll(t *testing.T) {
	spec := familySweepSpec()
	m := newTestManager(t, Options{})
	m.study.SetParallelism(2)
	st0, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, m, st0.ID); st.State != StateDone {
		t.Fatalf("final status = %+v", st)
	}
	got, _, ok := m.Result(st0.ID)
	if !ok {
		t.Fatal("sweep job has no result")
	}

	points, traffics, err := spec.Grid(workload.StaticTrafficFor)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := coldtall.NewStudy().Explorer().EvaluateAll(points, traffics)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SweepJSON(grid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("async sweep diverged from EvaluateAll:\n got %s\nwant %s", got, want)
	}
}

// TestSweepJobRecordWrites: a store-backed P-point x B-benchmark sweep
// writes one char| entry per distinct point (the 350 K baseline is one of
// them here), exactly 3 job records — queued, running and done; progress
// is never written — and one result. It keeps no per-cell state: no
// jobcell| key, nothing else.
func TestSweepJobRecordWrites(t *testing.T) {
	spec := familySweepSpec()
	st := openStore(t, t.TempDir())
	m := newTestManager(t, Options{Store: st})
	m.study.SetParallelism(2)
	st0, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitDone(t, m, st0.ID); s.State != StateDone {
		t.Fatalf("final status = %+v", s)
	}
	m.Close()
	chars, records, results := 0, 0, 0
	err = st.Walk(func(key string, _ []byte) error {
		switch {
		case strings.HasPrefix(key, charPrefix):
			chars++
		case key == recordKey(st0.ID):
			records++
		case key == resultKey(st0.ID):
			results++
		default:
			t.Errorf("sweep wrote unexpected store key %q", key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := len(spec.Points)
	if chars != p || records != 1 || results != 1 {
		t.Fatalf("store holds %d char|, %d job| and %d jobresult| keys, want %d, 1 and 1", chars, records, results, p)
	}
	// Each key was written once except the job record.
	if recordWrites := int(st.Stats().Puts) - chars - results; recordWrites != 3 {
		t.Errorf("sweep wrote %d job records, want 3 (one per state transition)", recordWrites)
	}
}

// TestTerminalStatusIsPersisted pins persist-then-publish: a subscriber
// that receives a terminal status reads the same state back from the
// job's store record at once, so no client can observe a state a crash
// would lose.
func TestTerminalStatusIsPersisted(t *testing.T) {
	st := openStore(t, t.TempDir())
	m := newTestManager(t, Options{Store: st})
	s0, err := m.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := m.Subscribe(s0.ID)
	if !ok {
		t.Fatal("Subscribe failed for a known job")
	}
	defer sub.Close()
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case s := <-sub.C:
			if !s.State.Terminal() {
				continue
			}
			raw, ok := st.Get(recordKey(s0.ID))
			if !ok {
				t.Fatal("no job record in the store")
			}
			var rec record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.State != s.State {
				t.Fatalf("subscriber saw %s while the stored record says %s", s.State, rec.State)
			}
			return
		case <-deadline:
			t.Fatal("no terminal status")
		}
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

// gateTier is a characterization tier whose lookups wait for gate to
// close and then miss: a job that reaches the explorer blocks at a known
// point, from outside the manager. entered closes at the first lookup.
type gateTier struct {
	gate    <-chan struct{}
	entered chan struct{}
	once    sync.Once
}

func newGateTier(gate <-chan struct{}) *gateTier {
	return &gateTier{gate: gate, entered: make(chan struct{})}
}

func (g *gateTier) Load(string) (array.Result, bool) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return array.Result{}, false
}

func (g *gateTier) Store(string, array.Result) {}

// TestCancelMidSweep: cancellation lands while the sweep is inside the
// explorer and the job reports cancelled, not failed.
func TestCancelMidSweep(t *testing.T) {
	m := newTestManager(t, Options{})
	gate := make(chan struct{})
	tier := newGateTier(gate)
	m.study.Explorer().SetPersistence(tier)
	st0, err := m.Submit(Spec{Kind: KindSweep, Points: []explorer.PointSpec{{Cell: "SRAM"}}, Benchmarks: []string{"namd"}})
	if err != nil {
		t.Fatal(err)
	}
	<-tier.entered
	if !m.Cancel(st0.ID) {
		t.Fatal("Cancel reported unknown job")
	}
	close(gate)
	st := waitDone(t, m, st0.ID)
	if st.State != StateCancelled {
		t.Errorf("state = %s (%s), want cancelled", st.State, st.Error)
	}
	if m.Cancel("jdeadbeef00000000") {
		t.Error("Cancel of an unknown ID reported true")
	}
}

// killTier is the job's char| tier with a kill switch: the store that
// makes after characterizations durable also cancels the job, standing in
// for a SIGKILL that lands mid-sweep.
type killTier struct {
	charTier
	after  int64
	stored atomic.Int64
	kill   func()
}

func (k *killTier) Store(key string, r array.Result) {
	k.charTier.Store(key, r)
	if k.stored.Add(1) == k.after {
		k.kill()
	}
}

// TestCrashRecoveryResumesFromCharacterizations is the crash-recovery
// acceptance test. A sweep is killed after three of its characterizations
// reached the store; a second manager over the same directory, built
// without the server, recovers it. The resumed job runs the optimizer only
// for the points with no char| entry and returns exactly the bytes of an
// uninterrupted run.
func TestCrashRecoveryResumesFromCharacterizations(t *testing.T) {
	dir := t.TempDir()
	spec := familySweepSpec()
	id := spec.id()

	// --- First process: three characterizations land, then it dies. ---
	st1 := openStore(t, dir)
	m1 := newTestManager(t, Options{Store: st1})
	m1.study.Explorer().SetPersistence(&killTier{charTier: charTier{st1}, after: 3, kill: func() { m1.Cancel(id) }})
	if _, err := m1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, m1, id); st.State != StateCancelled {
		t.Fatalf("first run state = %s, want cancelled", st.State)
	}
	persisted := 0
	_ = st1.Walk(func(key string, _ []byte) error {
		if strings.HasPrefix(key, charPrefix) {
			persisted++
		}
		return nil
	})
	if persisted == 0 || persisted >= len(spec.Points) {
		t.Fatalf("store holds %d of %d characterizations; the kill did not land mid-sweep", persisted, len(spec.Points))
	}
	// A SIGKILL never runs the cancelled transition: the record a real
	// crash leaves behind says "running". Restore that state before the
	// "restart" (the graceful-cancel path above overwrote it).
	raw, err := json.Marshal(record{ID: id, Spec: spec, State: StateRunning, Total: spec.Cells()})
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Put(recordKey(id), raw); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// --- Second process: same store dir, cold study, recover. ---
	m2 := newTestManager(t, Options{Store: openStore(t, dir)})
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("Recover re-enqueued %d jobs, want 1", resumed)
	}
	st := waitDone(t, m2, id)
	if st.State != StateDone || st.Done != spec.Cells() {
		t.Fatalf("resumed job status = %+v, want done %d/%d", st, spec.Cells(), spec.Cells())
	}
	// The baseline is one of the sweep's points, so every distinct point
	// the resumed job needs is a sweep point.
	if got, want := m2.study.Explorer().OptimizeCalls(), int64(len(spec.Points)-persisted); got != want {
		t.Errorf("resumed job ran the optimizer %d times, want %d (the points with no char| entry)", got, want)
	}
	got, _, ok := m2.Result(id)
	if !ok {
		t.Fatal("resumed job has no result")
	}
	ref := newTestManager(t, Options{})
	if _, err := ref.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, id)
	want, _, ok := ref.Result(id)
	if !ok {
		t.Fatal("uninterrupted job has no result")
	}
	if string(got) != string(want) {
		t.Errorf("resumed result diverged from an uninterrupted run:\n got %.300s\nwant %.300s", got, want)
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
