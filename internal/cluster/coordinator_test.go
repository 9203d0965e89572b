package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"coldtall/internal/array"
	"coldtall/internal/explorer"
	"coldtall/internal/job"
	"coldtall/internal/store"
)

// fakeClock drives the coordinator's liveness state machine directly:
// tests advance it and call expire() instead of sleeping through real
// TTLs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newCoord builds a coordinator on the fake clock with TTLs that only
// move when the test advances time.
func newCoord(t *testing.T, clk *fakeClock, opts Options) *Coordinator {
	t.Helper()
	opts.Now = clk.Now
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.HeartbeatTTL == 0 {
		opts.HeartbeatTTL = time.Hour
	}
	if opts.RequeueBase == 0 {
		opts.RequeueBase = time.Second
	}
	c := New(opts)
	t.Cleanup(c.Close)
	return c
}

func registerWorker(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	resp, err := c.register(RegisterRequest{Name: name, Version: explorer.ModelVersion})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return resp.WorkerID
}

// sramPoints builds n design points of one family (planar SRAM at
// descending temperatures), so lease chunking is governed purely by
// LeaseUnits.
func sramPoints(t *testing.T, n int) []explorer.DesignPoint {
	t.Helper()
	temps := []float64{350, 300, 250, 200, 150, 100, 77, 40}
	if n > len(temps) {
		t.Fatalf("sramPoints supports at most %d points", len(temps))
	}
	points := make([]explorer.DesignPoint, n)
	for i := range points {
		points[i] = explorer.SRAMAt(temps[i])
	}
	return points
}

// startRun launches DistributeChars in the background and waits until
// the run is registered (leases exist), returning the error channel and
// the save log.
func startRun(t *testing.T, ctx context.Context, c *Coordinator, jobID string, points []explorer.DesignPoint) (<-chan error, *sync.Map) {
	t.Helper()
	var saved sync.Map
	errc := make(chan error, 1)
	go func() {
		errc <- c.DistributeChars(ctx, jobID, points, func(i int, r array.Result) {
			saved.Store(i, r)
		})
	}()
	waitUntil(t, func() bool { return c.Stats().RunsActive > 0 }, "run registration")
	return errc, &saved
}

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ackResults forges one gob characterization per leased unit, stamping
// each with its original point index (recovered through the unit key) so
// tests can assert that results land at the right save positions.
func ackResults(t *testing.T, points []explorer.DesignPoint, l *Lease) [][]byte {
	t.Helper()
	byKey := make(map[string]int, len(points))
	for i, p := range points {
		byKey[p.Key()] = i
	}
	out := make([][]byte, len(l.Units))
	for k, u := range l.Units {
		idx, ok := byKey[u.Key]
		if !ok {
			t.Fatalf("lease %s unit %q matches no point", l.ID, u.Key)
		}
		raw, err := encodeGob(array.Result{ReadLatency: float64(idx)})
		if err != nil {
			t.Fatal(err)
		}
		out[k] = raw
	}
	return out
}

func mustGrant(t *testing.T, c *Coordinator, workerID string) *Lease {
	t.Helper()
	l, err := c.grantLease(workerID)
	if err != nil {
		t.Fatalf("grantLease(%s): %v", workerID, err)
	}
	if l == nil {
		t.Fatalf("grantLease(%s): no lease ready", workerID)
	}
	return l
}

func mustAck(t *testing.T, c *Coordinator, workerID string, points []explorer.DesignPoint, l *Lease) AckResponse {
	t.Helper()
	resp, err := c.ack(AckRequest{WorkerID: workerID, LeaseID: l.ID, Results: ackResults(t, points, l)})
	if err != nil {
		t.Fatalf("ack lease %s: %v", l.ID, err)
	}
	return resp
}

func TestDistributeNoWorkersFailsFast(t *testing.T) {
	c := newCoord(t, newFakeClock(), Options{})
	err := c.DistributeChars(context.Background(), "j0", sramPoints(t, 2), func(int, array.Result) {})
	if !errors.Is(err, job.ErrNoWorkers) {
		t.Fatalf("distribute with no workers = %v, want job.ErrNoWorkers", err)
	}
}

func TestRegisterRejectsModelVersionMismatch(t *testing.T) {
	c := newCoord(t, newFakeClock(), Options{})
	if _, err := c.register(RegisterRequest{Version: "bogus-v0"}); err == nil {
		t.Fatal("register with a mismatched model version was accepted")
	}
}

// TestLeaseGrantAckCompletes: the happy path. Three one-family points
// under LeaseUnits=2 chunk into two family-contiguous leases; acking both
// completes the run and every save lands at its original point index.
func TestLeaseGrantAckCompletes(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseUnits: 2})
	w := registerWorker(t, c, "a")
	points := sramPoints(t, 3)
	errc, saved := startRun(t, context.Background(), c, "j1", points)

	l1 := mustGrant(t, c, w)
	l2 := mustGrant(t, c, w)
	if len(l1.Units)+len(l2.Units) != 3 || len(l1.Units) > 2 || len(l2.Units) > 2 {
		t.Fatalf("lease sizes %d+%d, want 2+1 under LeaseUnits=2", len(l1.Units), len(l2.Units))
	}
	if l3, _ := c.grantLease(w); l3 != nil {
		t.Fatalf("third grant returned lease %s, want none", l3.ID)
	}

	if resp := mustAck(t, c, w, points, l1); resp.Status != "ok" {
		t.Fatalf("first ack status %q", resp.Status)
	}
	mustAck(t, c, w, points, l2)
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
	for i := range points {
		v, ok := saved.Load(i)
		if !ok {
			t.Fatalf("point %d never saved", i)
		}
		if r := v.(array.Result); r.ReadLatency != float64(i) {
			t.Fatalf("point %d received result stamped %v (misrouted save)", i, r.ReadLatency)
		}
	}
	st := c.Stats()
	if st.LeasesGranted != 2 || st.LeasesCompleted != 2 || st.UnitsDone != 3 || st.RunsActive != 0 {
		t.Fatalf("stats after completion: %+v", st)
	}
}

// TestDuplicateAckIdempotent: re-delivering a completed lease's ack while
// the run is still active answers "duplicate" and saves nothing twice.
func TestDuplicateAckIdempotent(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseUnits: 2})
	w := registerWorker(t, c, "a")
	points := sramPoints(t, 4)
	errc, saved := startRun(t, context.Background(), c, "j2", points)

	l1 := mustGrant(t, c, w)
	if resp := mustAck(t, c, w, points, l1); resp.Status != "ok" {
		t.Fatalf("first ack status %q", resp.Status)
	}
	if resp := mustAck(t, c, w, points, l1); resp.Status != "duplicate" {
		t.Fatalf("second ack status %q, want duplicate", resp.Status)
	}
	savedCount := 0
	saved.Range(func(any, any) bool { savedCount++; return true })
	if savedCount != len(l1.Units) {
		t.Fatalf("%d saves after duplicate ack, want %d", savedCount, len(l1.Units))
	}

	l2 := mustGrant(t, c, w)
	mustAck(t, c, w, points, l2)
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if st := c.Stats(); st.LeasesCompleted != 2 || st.UnitsDone != 4 {
		t.Fatalf("stats after duplicate ack: %+v", st)
	}
}

// TestLeaseExpiryRequeuesWithBackoff: an expired lease requeues, refuses
// to re-grant until its backoff delay has elapsed, and then completes
// normally.
func TestLeaseExpiryRequeuesWithBackoff(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseTTL: 10 * time.Second, RequeueBase: time.Second, RequeueMax: 10 * time.Second})
	w := registerWorker(t, c, "a")
	points := sramPoints(t, 2)
	errc, _ := startRun(t, context.Background(), c, "j3", points)

	l := mustGrant(t, c, w)
	clk.Advance(11 * time.Second) // past the 10s TTL
	c.expire(clk.Now())
	st := c.Stats()
	if st.LeasesExpired != 1 || st.LeasesRequeued != 1 {
		t.Fatalf("after expiry: %+v", st)
	}
	// Backoff(1, 1s, 10s) = 1s: the requeued lease is not ready yet.
	if early, _ := c.grantLease(w); early != nil {
		t.Fatalf("lease re-granted before its backoff delay")
	}
	clk.Advance(2 * time.Second)
	l2 := mustGrant(t, c, w)
	if l2.ID != l.ID {
		t.Fatalf("requeued grant returned %s, want original lease %s", l2.ID, l.ID)
	}
	mustAck(t, c, w, points, l2)
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
}

// TestJitterDelayNilRand: the coordinator requeues without a jitter
// source, so every requeued lease waits exactly the deterministic
// job.Backoff curve (doubling from RequeueBase, capped at RequeueMax) —
// not a nanosecond less, and no more.
func TestJitterDelayNilRand(t *testing.T) {
	const base, max = time.Second, 8 * time.Second
	const ttl = 10 * time.Second
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseTTL: ttl, RequeueBase: base, RequeueMax: max, MaxAttempts: 10})
	w := registerWorker(t, c, "a")
	points := sramPoints(t, 2)
	errc, _ := startRun(t, context.Background(), c, "j-nilrand", points)

	l := mustGrant(t, c, w)
	for attempt := 1; attempt <= 6; attempt++ {
		clk.Advance(ttl + time.Nanosecond)
		c.expire(clk.Now())
		want := job.Backoff(attempt, base, max, nil)
		clk.Advance(want - time.Nanosecond)
		if early, _ := c.grantLease(w); early != nil {
			t.Fatalf("attempt %d: lease re-granted before its %v backoff", attempt, want)
		}
		clk.Advance(time.Nanosecond)
		l2 := mustGrant(t, c, w)
		if l2.ID != l.ID {
			t.Fatalf("attempt %d: requeued grant returned %s, want %s", attempt, l2.ID, l.ID)
		}
		l = l2
	}
	mustAck(t, c, w, points, l)
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
}

// TestDeadWorkerRequeues: a worker that stops heartbeating is pruned and
// its in-flight lease requeues immediately for the surviving worker —
// the coordinator-side half of "worker killed mid-range".
func TestDeadWorkerRequeues(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseTTL: time.Hour, HeartbeatTTL: 10 * time.Second, RequeueBase: time.Millisecond})
	w1 := registerWorker(t, c, "doomed")
	w2 := registerWorker(t, c, "survivor")
	points := sramPoints(t, 2)
	errc, saved := startRun(t, context.Background(), c, "j4", points)

	l := mustGrant(t, c, w1)
	clk.Advance(6 * time.Second)
	if err := c.heartbeat(w2); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second) // w1 silent for 11s > 10s TTL; w2 for 5s
	c.expire(clk.Now())
	st := c.Stats()
	if st.WorkersLost != 1 || st.LeasesExpired != 1 {
		t.Fatalf("after worker death: %+v", st)
	}
	if err := c.heartbeat(w1); !errors.Is(err, errUnknownWorker) {
		t.Fatalf("dead worker heartbeat = %v, want errUnknownWorker", err)
	}
	clk.Advance(time.Second)
	l2 := mustGrant(t, c, w2)
	if l2.ID != l.ID {
		t.Fatalf("survivor got lease %s, want requeued %s", l2.ID, l.ID)
	}
	mustAck(t, c, w2, points, l2)
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if _, ok := saved.Load(0); !ok {
		t.Fatal("requeued lease's results never saved")
	}
}

// TestLateAckAfterExpiryAccepted: a lease that expired and was re-granted
// still accepts the original holder's late ack (determinism makes the
// results equally valid; first writer wins), and the superseded second
// ack answers errUnknownLease (HTTP 410) once the run is gone.
func TestLateAckAfterExpiryAccepted(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseTTL: 10 * time.Second, RequeueBase: time.Millisecond})
	w1 := registerWorker(t, c, "slow")
	w2 := registerWorker(t, c, "fast")
	points := sramPoints(t, 2)
	errc, saved := startRun(t, context.Background(), c, "j5", points)

	l := mustGrant(t, c, w1)
	clk.Advance(11 * time.Second)
	c.expire(clk.Now())
	clk.Advance(time.Second)
	l2 := mustGrant(t, c, w2)
	if l2.ID != l.ID {
		t.Fatalf("re-grant returned %s, want %s", l2.ID, l.ID)
	}
	// The slow worker's ack arrives after the re-grant: accepted.
	if resp := mustAck(t, c, w1, points, l); resp.Status != "ok" {
		t.Fatalf("late ack status %q", resp.Status)
	}
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
	// The fast worker's now-superseded ack finds the run gone.
	if _, err := c.ack(AckRequest{WorkerID: w2, LeaseID: l.ID, Results: ackResults(t, points, l2)}); !errors.Is(err, errUnknownLease) {
		t.Fatalf("superseded ack = %v, want errUnknownLease", err)
	}
	savedCount := 0
	saved.Range(func(any, any) bool { savedCount++; return true })
	if savedCount != 2 {
		t.Fatalf("%d saves, want exactly 2 (first writer wins)", savedCount)
	}
}

// TestNackExhaustsAttemptBudget: a lease that keeps failing requeues
// until MaxAttempts, then fails the whole run.
func TestNackExhaustsAttemptBudget(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{MaxAttempts: 2, RequeueBase: time.Millisecond})
	w := registerWorker(t, c, "a")
	errc, _ := startRun(t, context.Background(), c, "j6", sramPoints(t, 1))

	l := mustGrant(t, c, w)
	if resp, err := c.ack(AckRequest{WorkerID: w, LeaseID: l.ID, Error: "optimizer exploded"}); err != nil || resp.Status != "ok" {
		t.Fatalf("nack: resp=%+v err=%v", resp, err)
	}
	clk.Advance(time.Second)
	l2 := mustGrant(t, c, w)
	if _, err := c.ack(AckRequest{WorkerID: w, LeaseID: l2.ID, Error: "still exploding"}); err != nil {
		t.Fatalf("second nack: %v", err)
	}
	err := <-errc
	if err == nil || !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("distribute after exhausted budget = %v, want attempt-budget failure", err)
	}
	if st := c.Stats(); st.LeasesRequeued != 2 {
		t.Fatalf("stats after nacks: %+v", st)
	}
}

// TestMalformedAckRequeues: an ack whose result count does not match the
// lease is rejected (HTTP 400 at the handler) and the lease requeues
// server-side, so a buggy worker cannot wedge a run.
func TestMalformedAckRequeues(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{RequeueBase: time.Millisecond})
	w := registerWorker(t, c, "a")
	points := sramPoints(t, 2)
	errc, _ := startRun(t, context.Background(), c, "j7", points)

	l := mustGrant(t, c, w)
	if _, err := c.ack(AckRequest{WorkerID: w, LeaseID: l.ID, Results: ackResults(t, points, l)[:1]}); err == nil {
		t.Fatal("short ack was accepted")
	}
	clk.Advance(time.Second)
	l2 := mustGrant(t, c, w)
	if l2.ID != l.ID {
		t.Fatalf("requeued grant returned %s, want %s", l2.ID, l.ID)
	}
	mustAck(t, c, w, points, l2)
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
}

// TestNoWorkerGraceFailsOver: once every worker is lost for longer than
// the grace window, active runs fail wrapping job.ErrNoWorkers — the
// signal the manager turns into local-compute fallback.
func TestNoWorkerGraceFailsOver(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{HeartbeatTTL: 10 * time.Second, NoWorkerGrace: 20 * time.Second})
	registerWorker(t, c, "a")
	errc, _ := startRun(t, context.Background(), c, "j8", sramPoints(t, 2))

	clk.Advance(11 * time.Second)
	c.expire(clk.Now()) // worker dies; grace clock starts from its last sign of life
	if st := c.Stats(); st.WorkersLost != 1 || st.RunsActive != 1 {
		t.Fatalf("after worker loss: %+v", st)
	}
	clk.Advance(10 * time.Second) // 21s of empty cluster > 20s grace
	c.expire(clk.Now())
	err := <-errc
	if !errors.Is(err, job.ErrNoWorkers) {
		t.Fatalf("distribute after grace = %v, want job.ErrNoWorkers", err)
	}
}

// TestCancelKeepsRecordForAdoption + TestRecoverReadoptsLease together
// pin the coordinator-restart story: a run interrupted with a lease in
// flight persists its lease table; a new coordinator incarnation over the
// same store Recover()s it, re-adopts the lease under its original ID
// when the job re-distributes, and the surviving worker's ack lands
// without recomputing anything.
func TestRecoverReadoptsInFlightLease(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Version: explorer.ModelVersion})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	points := sramPoints(t, 4)
	const jobID = "jrecover"

	// First incarnation: grant one of two leases, then die mid-run (the
	// distribute context is cancelled, standing in for SIGKILL — the
	// persisted lease table is identical either way because it is written
	// at grant time, not at shutdown).
	c1 := newCoord(t, clk, Options{Store: st, LeaseUnits: 2})
	w1 := registerWorker(t, c1, "survivor")
	ctx, cancel := context.WithCancel(context.Background())
	errc, _ := startRun(t, ctx, c1, jobID, points)
	granted := mustGrant(t, c1, w1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted distribute = %v", err)
	}
	c1.Close()
	if _, ok := st.Get(runPrefix + jobID); !ok {
		t.Fatal("interrupted run left no persisted lease table")
	}

	// Second incarnation over the same store.
	c2 := newCoord(t, clk, Options{Store: st, LeaseUnits: 2})
	n, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Recover() = %d in-flight leases, want 1", n)
	}
	w2 := registerWorker(t, c2, "survivor")
	errc2, saved := startRun(t, context.Background(), c2, jobID, points)
	st2 := c2.Stats()
	if st2.LeasesAdopted != 1 || st2.LeasesActive != 1 || st2.LeasesPending != 1 {
		t.Fatalf("after re-adoption: %+v", st2)
	}

	// The worker that survived the restart acks the adopted lease under
	// its original ID.
	if resp := mustAck(t, c2, w2, points, granted); resp.Status != "ok" {
		t.Fatalf("adopted-lease ack status %q", resp.Status)
	}
	rest := mustGrant(t, c2, w2)
	if rest.ID == granted.ID {
		t.Fatalf("fresh lease reused adopted ID %s", rest.ID)
	}
	mustAck(t, c2, w2, points, rest)
	if err := <-errc2; err != nil {
		t.Fatalf("resumed distribute: %v", err)
	}
	for i := range points {
		if _, ok := saved.Load(i); !ok {
			t.Fatalf("point %d never saved after recovery", i)
		}
	}
	// Clean completion drops the persisted lease table.
	if _, ok := st.Get(runPrefix + jobID); ok {
		t.Fatal("completed run left its lease table behind")
	}
}

// TestRingOwnershipPrefersOwner: with two workers, pass-0 of the grant
// scan hands a family's lease to its ring owner when that worker asks
// first, and peer-fills it to the other worker rather than stalling.
func TestGrantPeerFillsNonOwnedFamilies(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseUnits: 8})
	w1 := registerWorker(t, c, "a")
	registerWorker(t, c, "b")
	points := sramPoints(t, 2)
	errc, _ := startRun(t, context.Background(), c, "j9", points)

	// Whichever worker asks, the single-family lease must be granted —
	// ownership is a scheduling preference, never a progress gate.
	l := mustGrant(t, c, w1)
	mustAck(t, c, w1, points, l)
	if err := <-errc; err != nil {
		t.Fatalf("distribute: %v", err)
	}
}

// TestDistributeChars pins the unit wire format: one unit per design
// point, keyed by the point's characterization key, whose payload decodes
// back to the point itself; the acked array.Result lands at the point's
// index unchanged.
func TestDistributeChars(t *testing.T) {
	clk := newFakeClock()
	c := newCoord(t, clk, Options{LeaseUnits: 8})
	w := registerWorker(t, c, "a")
	points := []explorer.DesignPoint{explorer.SRAMAt(350), explorer.SRAMAt(77)}
	errc, saved := startRun(t, context.Background(), c, "jchar", points)

	l := mustGrant(t, c, w)
	if len(l.Units) != len(points) {
		t.Fatalf("lease carries %d units, want %d", len(l.Units), len(points))
	}
	for _, u := range l.Units {
		var p explorer.DesignPoint
		if err := decodeGob(u.Payload, &p); err != nil {
			t.Fatal(err)
		}
		if p.Key() != u.Key {
			t.Fatalf("unit %q carries point %q", u.Key, p.Key())
		}
	}
	mustAck(t, c, w, points, l)
	if err := <-errc; err != nil {
		t.Fatalf("DistributeChars: %v", err)
	}
	for i := range points {
		v, ok := saved.Load(i)
		if !ok {
			t.Fatalf("point %d never saved", i)
		}
		if r := v.(array.Result); r.ReadLatency != float64(i) {
			t.Fatalf("point %d received result stamped %v", i, r.ReadLatency)
		}
	}
}

// TestEndedRunsDropLeaseTable: a run that ends other than by context
// cancellation leaves no lease table behind, so a later boot has nothing
// to adopt. The three endings are the no-worker grace failover, an
// exhausted attempt budget, and a workerless re-distribution of a job
// whose lease table an earlier incarnation left for adoption.
func TestEndedRunsDropLeaseTable(t *testing.T) {
	cases := []struct {
		name string
		end  func(t *testing.T, c *Coordinator, clk *fakeClock, st *store.Store)
	}{
		{"no-worker failover", func(t *testing.T, c *Coordinator, clk *fakeClock, _ *store.Store) {
			registerWorker(t, c, "a")
			errc, _ := startRun(t, context.Background(), c, "jend", sramPoints(t, 2))
			mustGrant(t, c, c.Stats().Workers[0].ID)
			clk.Advance(11 * time.Second)
			c.expire(clk.Now())
			clk.Advance(10 * time.Second)
			c.expire(clk.Now())
			if err := <-errc; !errors.Is(err, job.ErrNoWorkers) {
				t.Fatalf("distribute after grace = %v, want job.ErrNoWorkers", err)
			}
		}},
		{"exhausted attempts", func(t *testing.T, c *Coordinator, clk *fakeClock, _ *store.Store) {
			w := registerWorker(t, c, "a")
			errc, _ := startRun(t, context.Background(), c, "jend", sramPoints(t, 1))
			for i := 0; i < 2; i++ {
				l := mustGrant(t, c, w)
				if _, err := c.ack(AckRequest{WorkerID: w, LeaseID: l.ID, Error: "optimizer exploded"}); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
			}
			if err := <-errc; err == nil || !strings.Contains(err.Error(), "attempts") {
				t.Fatalf("distribute = %v, want attempt-budget failure", err)
			}
		}},
		{"workerless re-distribution", func(t *testing.T, c *Coordinator, clk *fakeClock, st *store.Store) {
			// An earlier incarnation was drained with a lease in flight.
			old := newCoord(t, clk, Options{Store: st})
			registerWorker(t, old, "a")
			ctx, cancel := context.WithCancel(context.Background())
			errc, _ := startRun(t, ctx, old, "jend", sramPoints(t, 2))
			mustGrant(t, old, old.Stats().Workers[0].ID)
			cancel()
			<-errc
			if n, err := c.Recover(); err != nil || n != 1 {
				t.Fatalf("Recover() = %d, %v; want the drained lease", n, err)
			}
			err := c.DistributeChars(context.Background(), "jend", sramPoints(t, 2), func(int, array.Result) {})
			if !errors.Is(err, job.ErrNoWorkers) {
				t.Fatalf("workerless distribute = %v, want job.ErrNoWorkers", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{Version: explorer.ModelVersion})
			if err != nil {
				t.Fatal(err)
			}
			clk := newFakeClock()
			c := newCoord(t, clk, Options{Store: st, HeartbeatTTL: 10 * time.Second, NoWorkerGrace: 20 * time.Second,
				MaxAttempts: 2, RequeueBase: time.Millisecond})
			tc.end(t, c, clk, st)
			if n, err := newCoord(t, clk, Options{Store: st}).Recover(); err != nil || n != 0 {
				t.Fatalf("fresh coordinator Recover() = %d, %v; want 0", n, err)
			}
			if _, ok := st.Get(runPrefix + "jend"); ok {
				t.Fatal("ended run left its lease table in the store")
			}
		})
	}
}
