// Differential tests pinning the tentpole invariant: a distributed run's
// artifacts are byte-identical to the single-process path. Each test
// boots a real coordinator behind httptest, real RunWorker replicas over
// HTTP, and a job manager wired to the coordinator, then byte-compares
// the job payload against an identical manager computing in-process.
package cluster_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coldtall"
	"coldtall/internal/cluster"
	"coldtall/internal/explorer"
	"coldtall/internal/job"
	"coldtall/internal/store"
)

// newManager builds a fresh study and a job manager over it (distributed
// when dist is non-nil, checkpointing when st is non-nil).
func newManager(t *testing.T, dist job.Distributor, st *store.Store) (*job.Manager, *coldtall.Study) {
	t.Helper()
	study := coldtall.NewStudy()
	study.SetParallelism(1)
	m, err := job.NewManager(study, job.Options{Workers: 1, Distributor: dist, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, study
}

// runJob executes one job spec on a fresh manager (distributed when dist
// is non-nil) and returns the result payload.
func runJob(t *testing.T, dist job.Distributor, spec job.Spec) []byte {
	t.Helper()
	m, _ := newManager(t, dist, nil)
	st0, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return waitResult(t, m, st0.ID)
}

// waitResult waits for a job to finish and returns its result payload.
func waitResult(t *testing.T, m *job.Manager, id string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := m.WaitFor(ctx, id)
	if err != nil {
		t.Fatalf("job %s did not finish: %v", id, err)
	}
	if st.State != job.StateDone {
		t.Fatalf("job %s state %s (%s)", id, st.State, st.Error)
	}
	body, _, ok := m.Result(id)
	if !ok {
		t.Fatalf("job %s has no result", id)
	}
	return body
}

// testCluster is one in-process coordinator plus worker replicas.
type testCluster struct {
	coord   *cluster.Coordinator
	url     string
	cancels []context.CancelFunc
	wg      sync.WaitGroup
}

func startCluster(t *testing.T, opts cluster.Options) *testCluster {
	t.Helper()
	tc := &testCluster{coord: cluster.New(opts)}
	t.Cleanup(tc.coord.Close)
	srv := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(srv.Close)
	tc.url = srv.URL
	t.Cleanup(func() {
		for _, cancel := range tc.cancels {
			cancel()
		}
		tc.wg.Wait()
	})
	return tc
}

// addWorker boots one RunWorker replica and waits for it to register,
// returning its kill switch.
func (tc *testCluster) addWorker(t *testing.T, opts cluster.WorkerOptions) context.CancelFunc {
	t.Helper()
	opts.Coordinator = tc.url
	if opts.Poll == 0 {
		opts.Poll = 5 * time.Millisecond
	}
	before := tc.coord.Stats().WorkersRegistered
	ctx, cancel := context.WithCancel(context.Background())
	tc.cancels = append(tc.cancels, cancel)
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		cluster.RunWorker(ctx, opts)
	}()
	waitUntilT(t, func() bool { return tc.coord.Stats().WorkersRegistered > before }, "worker registration")
	return cancel
}

func waitUntilT(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDistributedSweepByteIdentical: a sweep whose characterizations
// were leased across two workers produces the exact bytes of the
// in-process run, and the cluster (not a silent local fallback)
// characterized every point.
func TestDistributedSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a worker fleet")
	}
	spec := job.Spec{
		Kind: job.KindSweep,
		Points: []explorer.PointSpec{
			{Cell: "SRAM"},
			{Cell: "SRAM", TemperatureK: 77},
			{Cell: "3T-eDRAM", TemperatureK: 77},
		},
		Benchmarks: []string{"namd", "lbm"},
	}
	want := runJob(t, nil, spec)

	tc := startCluster(t, cluster.Options{LeaseUnits: 2})
	tc.addWorker(t, cluster.WorkerOptions{Name: "a"})
	tc.addWorker(t, cluster.WorkerOptions{Name: "b"})
	got := runJob(t, tc.coord, spec)

	if !bytes.Equal(got, want) {
		t.Errorf("distributed sweep diverged from single-process run:\n got %d bytes: %.200s\nwant %d bytes: %.200s", len(got), got, len(want), want)
	}
	// Three points (the 350 K SRAM one is the baseline) × two benchmarks:
	// one unit per point, not per cell.
	if st := tc.coord.Stats(); st.UnitsDone != 3 {
		t.Errorf("cluster characterized %d points, want all 3 (local fallback would hide divergence)", st.UnitsDone)
	}
}

// TestDistributedSweepLeasesPoints: a P-point × B-benchmark sweep leases
// exactly its distinct uncached points plus the baseline, one lease each
// under LeaseUnits 1; the coordinator runs no optimizer call, yet every
// cell is evaluated, checkpointed under jobcell|, and counted in progress
// that never decreases and reaches the total.
func TestDistributedSweepLeasesPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a worker fleet")
	}
	spec := job.Spec{
		Kind: job.KindSweep,
		Points: []explorer.PointSpec{
			{Cell: "SRAM", TemperatureK: 77},
			{Cell: "3T-eDRAM", TemperatureK: 77},
			{Cell: "3T-eDRAM", TemperatureK: 300},
		},
		Benchmarks: []string{"namd", "lbm"},
	}
	const points, cells = 3 + 1, 3 * 2 // the baseline is not in the grid
	want := runJob(t, nil, spec)

	tc := startCluster(t, cluster.Options{LeaseUnits: 1})
	tc.addWorker(t, cluster.WorkerOptions{Name: "a"})
	tc.addWorker(t, cluster.WorkerOptions{Name: "b"})
	st, err := store.Open(t.TempDir(), store.Options{Version: explorer.ModelVersion})
	if err != nil {
		t.Fatal(err)
	}
	m, study := newManager(t, tc.coord, st)
	st0, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := m.Subscribe(st0.ID)
	if !ok {
		t.Fatalf("job %s vanished", st0.ID)
	}
	defer sub.Close()
	last := -1
	var final job.Status
	for final.State == "" || !final.State.Terminal() {
		select {
		case final = <-sub.C:
			if final.Done < last {
				t.Fatalf("progress went backwards: %d after %d", final.Done, last)
			}
			last = final.Done
		case <-time.After(2 * time.Minute):
			t.Fatal("sweep did not finish")
		}
	}
	if final.Done != cells || final.Total != cells {
		t.Errorf("final progress %d/%d, want %d/%d", final.Done, final.Total, cells, cells)
	}
	if got := waitResult(t, m, st0.ID); !bytes.Equal(got, want) {
		t.Errorf("distributed sweep diverged from single-process run:\n got %d bytes: %.200s\nwant %d bytes: %.200s", len(got), got, len(want), want)
	}

	cs := tc.coord.Stats()
	if cs.UnitsDone != points || cs.LeasesCompleted != points {
		t.Errorf("cluster landed %d units in %d leases, want %d points in %d leases", cs.UnitsDone, cs.LeasesCompleted, points, points)
	}
	if n := study.Explorer().OptimizeCalls(); n != 0 {
		t.Errorf("coordinator ran %d optimizer calls, want 0", n)
	}
	checkpoints := 0
	st.Walk(func(key string, _ []byte) error {
		if strings.HasPrefix(key, "jobcell|"+st0.ID+"|") {
			checkpoints++
		}
		return nil
	})
	if checkpoints != cells {
		t.Errorf("%d jobcell checkpoints, want one per cell (%d)", checkpoints, cells)
	}
}

// TestSweepWithoutWorkersComputesLocally: a coordinator with an empty
// worker table answers ErrNoWorkers and the manager computes the whole
// sweep in-process, to the same bytes.
func TestSweepWithoutWorkersComputesLocally(t *testing.T) {
	spec := job.Spec{
		Kind:       job.KindSweep,
		Points:     []explorer.PointSpec{{Cell: "SRAM", TemperatureK: 77}, {Cell: "3T-eDRAM", TemperatureK: 77}},
		Benchmarks: []string{"namd", "lbm"},
	}
	want := runJob(t, nil, spec)
	tc := startCluster(t, cluster.Options{})
	if got := runJob(t, tc.coord, spec); !bytes.Equal(got, want) {
		t.Errorf("workerless sweep diverged from single-process run:\n got: %.200s\nwant: %.200s", got, want)
	}
	if st := tc.coord.Stats(); st.UnitsDone != 0 || st.LeasesGranted != 0 {
		t.Errorf("workerless coordinator leased work: %+v", st)
	}
}

// TestDistributedArtifactByteIdentical: an artifact job whose
// characterizations were computed on workers renders the exact CSV of a
// fully local run.
func TestDistributedArtifactByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a worker fleet")
	}
	spec := job.Spec{Kind: job.KindArtifact, Artifact: "cooling"}
	want := runJob(t, nil, spec)

	tc := startCluster(t, cluster.Options{LeaseUnits: 1})
	tc.addWorker(t, cluster.WorkerOptions{Name: "a"})
	tc.addWorker(t, cluster.WorkerOptions{Name: "b"})
	got := runJob(t, tc.coord, spec)

	if !bytes.Equal(got, want) {
		t.Errorf("distributed artifact diverged from single-process run:\n got: %s\nwant: %s", got, want)
	}
	if st := tc.coord.Stats(); st.UnitsDone == 0 {
		t.Error("cluster characterized nothing; the differential ran against the local fallback")
	}
}

// TestDistributedSweepSurvivesWorkerKill: the acceptance scenario — a
// worker is killed mid-lease, its lease expires and requeues, the
// surviving worker finishes the sweep, and the payload is still
// byte-identical to the single-process run.
func TestDistributedSweepSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a worker fleet and waits out a lease TTL")
	}
	spec := job.Spec{
		Kind: job.KindSweep,
		Points: []explorer.PointSpec{
			{Cell: "SRAM"},
			{Cell: "SRAM", TemperatureK: 77},
			{Cell: "3T-eDRAM", TemperatureK: 77},
			{Cell: "3T-eDRAM", TemperatureK: 300},
		},
		Benchmarks: []string{"namd"},
	}
	want := runJob(t, nil, spec)

	tc := startCluster(t, cluster.Options{
		LeaseUnits:   2,
		LeaseTTL:     500 * time.Millisecond,
		HeartbeatTTL: time.Second,
		RequeueBase:  10 * time.Millisecond,
		RequeueMax:   50 * time.Millisecond,
	})
	// The doomed worker's Throttle is effectively infinite: it grabs a
	// lease and never finishes a unit, so killing it always interrupts
	// mid-range and every result comes from the survivor.
	killDoomed := tc.addWorker(t, cluster.WorkerOptions{Name: "doomed", Throttle: time.Hour})

	resultc := make(chan []byte, 1)
	go func() { resultc <- runJob(t, tc.coord, spec) }()
	waitUntilT(t, func() bool { return tc.coord.Stats().LeasesGranted >= 1 }, "doomed worker to take a lease")
	killDoomed()
	tc.addWorker(t, cluster.WorkerOptions{Name: "survivor"})

	var got []byte
	select {
	case got = <-resultc:
	case <-time.After(2 * time.Minute):
		t.Fatal("sweep did not finish after the worker kill")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-kill sweep diverged from single-process run:\n got %d bytes: %.200s\nwant %d bytes: %.200s", len(got), got, len(want), want)
	}
	st := tc.coord.Stats()
	if st.LeasesRequeued == 0 {
		t.Errorf("no lease requeued after killing a mid-range worker: %+v", st)
	}
	if st.UnitsDone != 4 {
		t.Errorf("cluster characterized %d points, want all 4", st.UnitsDone)
	}
}

// TestWorkerReregistersAfterCoordinatorRestart: when the coordinator
// restarts (fresh worker table behind the same URL), the worker's next
// poll answers 404 unknown-worker and the worker re-registers with the
// new incarnation instead of dying.
func TestWorkerReregistersAfterCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a worker replica")
	}
	c1 := cluster.New(cluster.Options{})
	t.Cleanup(c1.Close)
	var current atomic.Value // http.Handler
	current.Store(c1.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cluster.RunWorker(ctx, cluster.WorkerOptions{Coordinator: srv.URL, Name: "phoenix", Poll: 5 * time.Millisecond})
	}()
	t.Cleanup(func() { cancel(); <-done })
	waitUntilT(t, func() bool { return c1.Stats().WorkersRegistered >= 1 }, "initial registration")

	// "Restart": a new coordinator with an empty worker table takes over
	// the URL. The worker's lease polls now answer 404, which must drive
	// it back through register rather than out of its loop.
	c2 := cluster.New(cluster.Options{})
	t.Cleanup(c2.Close)
	current.Store(c2.Handler())
	waitUntilT(t, func() bool { return c2.Stats().WorkersRegistered >= 1 }, "re-registration with the new incarnation")
}
