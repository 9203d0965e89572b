package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"coldtall/internal/array"
	"coldtall/internal/explorer"
	"coldtall/internal/job"
	"coldtall/internal/store"
)

// runPrefix namespaces persisted lease tables in the result store.
const runPrefix = "clusterrun|"

// Errors the HTTP layer maps to status codes.
var (
	errUnknownWorker = errors.New("cluster: unknown worker")
	errUnknownLease  = errors.New("cluster: unknown or superseded lease")
)

// Options tunes a Coordinator. The zero value is usable.
type Options struct {
	// LeaseTTL bounds how long a worker holds a lease before it expires
	// and requeues (default 30s).
	LeaseTTL time.Duration
	// HeartbeatTTL is how long a silent worker stays registered
	// (default 15s). A deregistered worker's leases requeue immediately.
	HeartbeatTTL time.Duration
	// LeaseUnits caps units per lease; 0 selects DefaultLeaseUnits()
	// (whole families on a one-core coordinator). Family boundaries cap
	// leases regardless, preserving warm-start contiguity.
	LeaseUnits int
	// MaxAttempts bounds requeues per lease before the whole run fails
	// (default 5; <0 means unlimited).
	MaxAttempts int
	// RequeueBase/RequeueMax shape the capped exponential backoff a
	// requeued lease waits before re-granting (defaults 250ms / 15s).
	RequeueBase time.Duration
	RequeueMax  time.Duration
	// NoWorkerGrace fails active runs (wrapping job.ErrNoWorkers, so the
	// manager falls back to local compute for the points that have not
	// landed) once the worker table has been empty this long
	// (default 2×HeartbeatTTL).
	NoWorkerGrace time.Duration
	// Store, when set, persists per-run lease tables under "clusterrun|"
	// keys so a restarted coordinator can Recover() and re-adopt leases
	// that were in flight.
	Store *store.Store
	// Logger receives lifecycle events; nil discards them.
	Logger *log.Logger
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

func (o *Options) fill() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 15 * time.Second
	}
	if o.LeaseUnits <= 0 {
		o.LeaseUnits = DefaultLeaseUnits()
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 5
	}
	if o.RequeueBase <= 0 {
		o.RequeueBase = 250 * time.Millisecond
	}
	if o.RequeueMax <= 0 {
		o.RequeueMax = 15 * time.Second
	}
	if o.NoWorkerGrace <= 0 {
		o.NoWorkerGrace = 2 * o.HeartbeatTTL
	}
}

// Coordinator decomposes characterization runs into leased point ranges
// and arbitrates them across registered workers. It implements
// job.Distributor (wire it as job.Options.Distributor) and exposes the
// worker-facing HTTP surface via Handler().
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	workers  map[string]*workerState
	ring     *ring
	runs     map[string]*run
	runOrder []string
	leases   map[string]leaseRef
	orphans  map[string]runRecord
	seq      int
	// lastWorker is the last instant any live worker was heard from —
	// the reference point for the NoWorkerGrace run-failure window.
	lastWorker time.Time

	// Cumulative statistics (guarded by mu).
	statWorkersRegistered int64
	statWorkersLost       int64
	statLeasesGranted     int64
	statLeasesCompleted   int64
	statLeasesExpired     int64
	statLeasesRequeued    int64
	statLeasesAdopted     int64
	statUnitsDone         int64

	stopOnce sync.Once
	stop     chan struct{}

	// persistMu orders persistRun's snapshot-then-Put pairs, so an older
	// lease table can never overwrite a newer one in the store.
	persistMu sync.Mutex
}

type workerState struct {
	id           string
	name         string
	lastSeen     time.Time
	registeredAt time.Time
	unitsDone    int64
	leasesDone   int64
}

type leaseState int

const (
	leasePending leaseState = iota
	leaseLeased
	leaseDone
)

type lease struct {
	id     string
	family string
	units  []int // indices into run.units, family-contiguous warm order
	state  leaseState
	owner  string
	// expires bounds a granted lease; notBefore delays a requeued one
	// (capped exponential backoff).
	expires   time.Time
	notBefore time.Time
	attempts  int
}

type run struct {
	key       string // the job ID
	units     []Unit
	save      func(i int, r array.Result)
	leases    []*lease
	remaining int
	// saving counts in-flight save callbacks; a run's done channel only
	// closes after they drain, so no save ever fires after distribute()
	// has returned to the manager.
	saving   sync.WaitGroup
	err      error
	done     chan struct{}
	finished bool
}

type leaseRef struct {
	r *run
	l *lease
}

// Persisted lease-table records (JSON: nothing here needs gob).
type runRecord struct {
	Key    string        `json:"key"`
	Leases []leaseRecord `json:"leases"`
}

type leaseRecord struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Owner    string   `json:"owner,omitempty"`
	Attempts int      `json:"attempts"`
	UnitKeys []string `json:"unit_keys"`
}

// New builds a Coordinator and starts its expiry ticker (stop it with
// Close). Call Recover() before the first distributed run to re-adopt
// leases persisted by a previous incarnation.
func New(opts Options) *Coordinator {
	opts.fill()
	c := &Coordinator{
		opts:    opts,
		workers: make(map[string]*workerState),
		ring:    buildRing(nil),
		runs:    make(map[string]*run),
		leases:  make(map[string]leaseRef),
		orphans: make(map[string]runRecord),
		stop:    make(chan struct{}),
	}
	tick := c.opts.LeaseTTL / 4
	if hb := c.opts.HeartbeatTTL / 4; hb < tick {
		tick = hb
	}
	if tick < 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	if tick > 5*time.Second {
		tick = 5 * time.Second
	}
	go c.expiryLoop(tick)
	return c
}

// Close stops the expiry ticker. Active runs are left to their context.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
}

func (c *Coordinator) expiryLoop(tick time.Duration) {
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.expire(c.now())
		}
	}
}

// expire runs one expiry sweep at the given instant (the ticker's entry
// point; tests drive it directly with a crafted clock).
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	c.sweepLocked(now)
	c.mu.Unlock()
}

func (c *Coordinator) now() time.Time {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Now()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logger != nil {
		c.opts.Logger.Printf("cluster: "+format, args...)
	}
}

// Recover loads lease tables persisted by a previous coordinator
// incarnation. Each recovered run is re-adopted when the manager
// re-distributes the matching job: leases that were in flight are
// re-created under their original IDs with a fresh TTL, so a worker that
// survived the restart can still ack them and nothing recomputes. It
// returns the number of in-flight leases eligible for adoption.
func (c *Coordinator) Recover() (int, error) {
	if c.opts.Store == nil {
		return 0, nil
	}
	adoptable := 0
	err := c.opts.Store.Walk(func(key string, val []byte) error {
		if !strings.HasPrefix(key, runPrefix) {
			return nil
		}
		var rec runRecord
		if err := json.Unmarshal(val, &rec); err != nil {
			c.logf("recover: dropping malformed record %s: %v", key, err)
			return nil
		}
		c.mu.Lock()
		c.orphans[rec.Key] = rec
		c.mu.Unlock()
		for _, l := range rec.Leases {
			if l.State == "leased" {
				adoptable++
			}
		}
		return nil
	})
	if err != nil {
		return adoptable, err
	}
	if adoptable > 0 {
		c.logf("recover: %d in-flight lease(s) eligible for re-adoption", adoptable)
	}
	return adoptable, nil
}

// DistributeChars implements job.Distributor. It registers a run of one
// unit per design point (keyed by the point's characterization key),
// decomposes it into family-contiguous leases (re-adopting any recovered
// in-flight leases first), and blocks until every unit has landed, the
// run fails, or ctx is cancelled. Save callbacks never fire after it
// returns.
func (c *Coordinator) DistributeChars(ctx context.Context, jobID string, points []explorer.DesignPoint, save func(i int, r array.Result)) error {
	if len(points) == 0 {
		return nil
	}
	units := make([]Unit, len(points))
	fams := make([]string, len(points))
	for i, p := range points {
		fams[i] = explorer.FamilyKey(p)
		raw, err := encodeGob(p)
		if err != nil {
			return err
		}
		units[i] = Unit{Key: p.Key(), Payload: raw}
	}
	now := c.now()

	c.mu.Lock()
	c.sweepLocked(now)
	if len(c.workers) == 0 {
		// The job computes locally, so a recovered lease table for it can
		// never be adopted.
		_, orphaned := c.orphans[jobID]
		delete(c.orphans, jobID)
		c.mu.Unlock()
		if orphaned {
			c.opts.Store.Delete(runPrefix + jobID)
		}
		return fmt.Errorf("cluster: %w", job.ErrNoWorkers)
	}
	if _, dup := c.runs[jobID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: run %s already active", jobID)
	}
	r := &run{
		key:       jobID,
		units:     units,
		save:      save,
		remaining: len(units),
		done:      make(chan struct{}),
	}
	unitIdx := make(map[string]int, len(units))
	for i, u := range units {
		unitIdx[u.Key] = i
	}

	// Re-adopt in-flight leases from a recovered incarnation: same ID,
	// same unit set, fresh TTL. Only leases whose units are all still
	// pending qualify — anything else just expires at the old worker,
	// whose ack will answer 410 and the units recompute.
	covered := make(map[int]bool)
	usedIDs := make(map[string]bool)
	if rec, ok := c.orphans[jobID]; ok {
		delete(c.orphans, jobID)
		for _, lr := range rec.Leases {
			if lr.State != "leased" {
				continue
			}
			idxs := make([]int, 0, len(lr.UnitKeys))
			adoptable := len(lr.UnitKeys) > 0
			for _, uk := range lr.UnitKeys {
				i, found := unitIdx[uk]
				if !found || covered[i] {
					adoptable = false
					break
				}
				idxs = append(idxs, i)
			}
			if !adoptable {
				continue
			}
			l := &lease{
				id:       lr.ID,
				family:   fams[idxs[0]],
				units:    idxs,
				state:    leaseLeased,
				owner:    lr.Owner,
				expires:  now.Add(c.opts.LeaseTTL),
				attempts: lr.Attempts,
			}
			for _, i := range idxs {
				covered[i] = true
			}
			usedIDs[l.id] = true
			r.leases = append(r.leases, l)
			c.leases[l.id] = leaseRef{r, l}
			c.statLeasesAdopted++
			c.logf("run %s: re-adopted lease %s (%d units, worker %s)", jobID, l.id, len(idxs), l.owner)
		}
	}

	// Chunk the remaining units in family-contiguous warm order. A lease
	// never crosses a family boundary (each family's rankingMemo chain
	// stays within one worker's serial pass) and never exceeds LeaseUnits.
	seq := 0
	nextID := func() string {
		for {
			id := fmt.Sprintf("%s#%d", jobID, seq)
			seq++
			if !usedIDs[id] {
				return id
			}
		}
	}
	var cur []int
	var curFam string
	flush := func() {
		if len(cur) == 0 {
			return
		}
		l := &lease{id: nextID(), family: curFam, units: cur, state: leasePending}
		r.leases = append(r.leases, l)
		c.leases[l.id] = leaseRef{r, l}
		cur = nil
	}
	for _, i := range explorer.FamilyOrder(points) {
		if covered[i] {
			continue
		}
		if len(cur) > 0 && (fams[i] != curFam || len(cur) >= c.opts.LeaseUnits) {
			flush()
		}
		curFam = fams[i]
		cur = append(cur, i)
	}
	flush()

	c.runs[jobID] = r
	c.runOrder = append(c.runOrder, jobID)
	c.mu.Unlock()

	c.persistRun(r)
	c.logf("run %s: %d units across %d leases (%d adopted)", jobID, len(units), len(r.leases), len(usedIDs))

	select {
	case <-ctx.Done():
		// Keep the persisted record: this is the drain case, and a restart
		// re-adopts whatever was in flight when the job resumes.
		c.finishRun(r, ctx.Err(), true)
		<-r.done
		return ctx.Err()
	case <-r.done:
		return r.err
	}
}

// finishRun ends a run exactly once: it unlinks the run and its leases so
// no new ack can reach it, then (asynchronously) waits for in-flight save
// callbacks to drain before closing done. Unless keepRecord is set (the
// run's context was cancelled, so a resumed job can re-adopt its leases),
// the persisted lease table is deleted first: after completion, a
// no-worker failover or an exhausted attempt budget the job finishes
// locally or fails, and the record would only leak into later boots.
func (c *Coordinator) finishRun(r *run, err error, keepRecord bool) {
	c.mu.Lock()
	c.finishLocked(r, err, keepRecord)
	c.mu.Unlock()
}

func (c *Coordinator) finishLocked(r *run, err error, keepRecord bool) {
	if r.finished {
		return
	}
	r.finished = true
	r.err = err
	delete(c.runs, r.key)
	for i, k := range c.runOrder {
		if k == r.key {
			c.runOrder = append(c.runOrder[:i], c.runOrder[i+1:]...)
			break
		}
	}
	for _, l := range r.leases {
		delete(c.leases, l.id)
	}
	go func() {
		r.saving.Wait()
		if !keepRecord && c.opts.Store != nil {
			// persistMu orders the delete after any snapshot-then-Put that
			// began before the run finished; later ones see r.finished.
			c.persistMu.Lock()
			c.opts.Store.Delete(runPrefix + r.key)
			c.persistMu.Unlock()
		}
		close(r.done)
	}()
}

// persistRun snapshots a run's lease table into the store (best effort).
func (c *Coordinator) persistRun(r *run) {
	if c.opts.Store == nil {
		return
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	c.mu.Lock()
	if r.finished {
		c.mu.Unlock()
		return
	}
	rec := runRecord{Key: r.key, Leases: make([]leaseRecord, 0, len(r.leases))}
	for _, l := range r.leases {
		lr := leaseRecord{ID: l.id, Owner: l.owner, Attempts: l.attempts, UnitKeys: make([]string, 0, len(l.units))}
		switch l.state {
		case leasePending:
			lr.State = "pending"
		case leaseLeased:
			lr.State = "leased"
		case leaseDone:
			lr.State = "done"
		}
		for _, i := range l.units {
			lr.UnitKeys = append(lr.UnitKeys, r.units[i].Key)
		}
		rec.Leases = append(rec.Leases, lr)
	}
	c.mu.Unlock()
	raw, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if err := c.opts.Store.Put(runPrefix+r.key, raw); err != nil {
		c.logf("run %s: persisting lease table: %v", r.key, err)
	}
}

// register admits a worker (rejecting physics-version mismatches, which
// would break the byte-identity invariant) and rebuilds the ring.
func (c *Coordinator) register(req RegisterRequest) (RegisterResponse, error) {
	if req.Version != explorer.ModelVersion {
		return RegisterResponse{}, fmt.Errorf("cluster: worker model version %q does not match coordinator %q", req.Version, explorer.ModelVersion)
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := fmt.Sprintf("w%d", c.seq)
	c.workers[id] = &workerState{id: id, name: req.Name, lastSeen: now, registeredAt: now}
	c.lastWorker = now
	c.statWorkersRegistered++
	c.rebuildRingLocked()
	c.logf("worker %s registered (%s)", id, req.Name)
	return RegisterResponse{
		WorkerID:    id,
		HeartbeatMS: (c.opts.HeartbeatTTL / 3).Milliseconds(),
		PollMS:      250,
	}, nil
}

func (c *Coordinator) heartbeat(workerID string) error {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return errUnknownWorker
	}
	w.lastSeen = now
	c.lastWorker = now
	return nil
}

func (c *Coordinator) rebuildRingLocked() {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c.ring = buildRing(ids)
}

// grantLease hands the calling worker one ready lease, preferring leases
// whose family the consistent-hash ring assigns to it (disjoint warm
// caches across workers) and peer-filling any other ready lease otherwise
// (ownership is a preference, never a stall). Returns nil when no work is
// ready.
func (c *Coordinator) grantLease(workerID string) (*Lease, error) {
	now := c.now()
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return nil, errUnknownWorker
	}
	w.lastSeen = now
	c.lastWorker = now
	c.sweepLocked(now)

	var granted *lease
	var owner *run
	for pass := 0; pass < 2 && granted == nil; pass++ {
		for _, rk := range c.runOrder {
			r := c.runs[rk]
			for _, l := range r.leases {
				if l.state != leasePending || now.Before(l.notBefore) {
					continue
				}
				if pass == 0 && c.ring.owner(l.family) != workerID {
					continue
				}
				granted, owner = l, r
				break
			}
			if granted != nil {
				break
			}
		}
	}
	if granted == nil {
		c.mu.Unlock()
		return nil, nil
	}
	granted.state = leaseLeased
	granted.owner = workerID
	granted.expires = now.Add(c.opts.LeaseTTL)
	c.statLeasesGranted++
	wire := &Lease{
		ID:    granted.id,
		Job:   owner.key,
		Units: make([]Unit, len(granted.units)),
		TTLMS: c.opts.LeaseTTL.Milliseconds(),
	}
	for k, idx := range granted.units {
		wire.Units[k] = owner.units[idx]
	}
	c.mu.Unlock()
	c.persistRun(owner)
	return wire, nil
}

// ack lands a lease's results (or failure). Duplicate acks are
// idempotent; late acks from an expired-and-requeued lease are accepted
// (determinism makes the results equally valid), first writer wins.
func (c *Coordinator) ack(req AckRequest) (AckResponse, error) {
	now := c.now()
	c.mu.Lock()
	if w := c.workers[req.WorkerID]; w != nil {
		w.lastSeen = now
		c.lastWorker = now
	}
	ref, ok := c.leases[req.LeaseID]
	if !ok {
		c.mu.Unlock()
		return AckResponse{}, errUnknownLease
	}
	r, l := ref.r, ref.l
	if l.state == leaseDone {
		c.mu.Unlock()
		return AckResponse{Status: "duplicate"}, nil
	}
	if req.Error != "" {
		c.statLeasesRequeued++
		c.requeueLocked(r, l, now, fmt.Sprintf("worker %s reported: %s", req.WorkerID, req.Error))
		c.mu.Unlock()
		return AckResponse{Status: "ok"}, nil
	}
	if len(req.Results) != len(l.units) {
		c.statLeasesRequeued++
		c.requeueLocked(r, l, now, fmt.Sprintf("worker %s returned %d results for %d units", req.WorkerID, len(req.Results), len(l.units)))
		c.mu.Unlock()
		return AckResponse{}, fmt.Errorf("cluster: lease %s: %d results for %d units", req.LeaseID, len(req.Results), len(l.units))
	}
	idxs := append([]int(nil), l.units...)
	c.mu.Unlock()

	// Decode outside the lock; a payload that does not decode is a nack.
	vals := make([]array.Result, len(idxs))
	for k := range idxs {
		if err := decodeGob(req.Results[k], &vals[k]); err != nil {
			c.mu.Lock()
			if !r.finished && l.state != leaseDone {
				c.statLeasesRequeued++
				c.requeueLocked(r, l, now, fmt.Sprintf("worker %s result %d: %v", req.WorkerID, k, err))
			}
			c.mu.Unlock()
			return AckResponse{}, fmt.Errorf("cluster: lease %s unit %d: %w", req.LeaseID, k, err)
		}
	}

	c.mu.Lock()
	if r.finished {
		c.mu.Unlock()
		return AckResponse{}, errUnknownLease
	}
	if l.state == leaseDone {
		c.mu.Unlock()
		return AckResponse{Status: "duplicate"}, nil
	}
	l.state = leaseDone
	l.owner = req.WorkerID
	r.remaining -= len(idxs)
	completed := r.remaining == 0
	r.saving.Add(1)
	if w := c.workers[req.WorkerID]; w != nil {
		w.unitsDone += int64(len(idxs))
		w.leasesDone++
	}
	c.statLeasesCompleted++
	c.statUnitsDone += int64(len(idxs))
	c.mu.Unlock()

	for k, idx := range idxs {
		r.save(idx, vals[k])
	}
	r.saving.Done()
	c.persistRun(r)
	if completed {
		c.finishRun(r, nil, false)
	}
	return AckResponse{Status: "ok"}, nil
}

// requeueLocked returns a lease to the pending queue with capped
// exponential backoff, failing the whole run once the attempt budget is
// exhausted. Callers account the requeue statistic themselves (expiries
// and nacks are tallied differently).
func (c *Coordinator) requeueLocked(r *run, l *lease, now time.Time, cause string) {
	if r.finished || l.state == leaseDone {
		return
	}
	l.attempts++
	if c.opts.MaxAttempts > 0 && l.attempts >= c.opts.MaxAttempts {
		c.logf("run %s: lease %s failed after %d attempts (%s)", r.key, l.id, l.attempts, cause)
		c.finishLocked(r, fmt.Errorf("cluster: lease %s failed after %d attempts: %s", l.id, l.attempts, cause), false)
		return
	}
	l.state = leasePending
	l.owner = ""
	l.notBefore = now.Add(job.Backoff(l.attempts, c.opts.RequeueBase, c.opts.RequeueMax, nil))
	c.logf("run %s: lease %s requeued (attempt %d: %s)", r.key, l.id, l.attempts, cause)
}

// sweepLocked advances the liveness state machine at one instant: silent
// workers deregister (their leases requeue immediately), expired leases
// requeue with backoff, and runs fail wrapping job.ErrNoWorkers once the
// cluster has been empty past the grace window.
func (c *Coordinator) sweepLocked(now time.Time) {
	dead := make(map[string]bool)
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.opts.HeartbeatTTL {
			dead[id] = true
			delete(c.workers, id)
			c.statWorkersLost++
			c.logf("worker %s lost (silent for %s)", id, now.Sub(w.lastSeen))
		}
	}
	if len(dead) > 0 {
		c.rebuildRingLocked()
	}
	for _, rk := range append([]string(nil), c.runOrder...) {
		r := c.runs[rk]
		if r == nil {
			continue
		}
		for _, l := range r.leases {
			if r.finished {
				break
			}
			if l.state != leaseLeased {
				continue
			}
			if now.After(l.expires) || dead[l.owner] {
				c.statLeasesExpired++
				c.statLeasesRequeued++
				c.requeueLocked(r, l, now, fmt.Sprintf("lease expired at worker %s", l.owner))
			}
		}
	}
	if len(c.workers) == 0 && len(c.runs) > 0 && !c.lastWorker.IsZero() && now.Sub(c.lastWorker) > c.opts.NoWorkerGrace {
		for _, rk := range append([]string(nil), c.runOrder...) {
			r := c.runs[rk]
			if r == nil {
				continue
			}
			c.logf("run %s: all workers lost for %s; failing over to local compute", rk, now.Sub(c.lastWorker))
			c.finishLocked(r, fmt.Errorf("cluster: all workers lost: %w", job.ErrNoWorkers), false)
		}
	}
}

// WorkerStatus is one worker's row in Stats.
type WorkerStatus struct {
	ID            string  `json:"id"`
	Name          string  `json:"name,omitempty"`
	UnitsDone     int64   `json:"units_done"`
	LeasesDone    int64   `json:"leases_done"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	PointsPerSec  float64 `json:"points_per_sec"`
}

// Stats is a point-in-time snapshot of the cluster, served on
// /v1/cluster/status and exported through the server's /metrics.
type Stats struct {
	Workers           []WorkerStatus `json:"workers"`
	WorkersRegistered int64          `json:"workers_registered_total"`
	WorkersLost       int64          `json:"workers_lost_total"`
	RunsActive        int            `json:"runs_active"`
	LeasesActive      int            `json:"leases_active"`
	LeasesPending     int            `json:"leases_pending"`
	LeasesGranted     int64          `json:"leases_granted_total"`
	LeasesCompleted   int64          `json:"leases_completed_total"`
	LeasesExpired     int64          `json:"leases_expired_total"`
	LeasesRequeued    int64          `json:"leases_requeued_total"`
	LeasesAdopted     int64          `json:"leases_adopted_total"`
	// UnitsDone counts landed units: design points characterized by
	// workers, not sweep cells.
	UnitsDone int64 `json:"units_done_total"`
}

// Stats snapshots the cluster state.
func (c *Coordinator) Stats() Stats {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		WorkersRegistered: c.statWorkersRegistered,
		WorkersLost:       c.statWorkersLost,
		RunsActive:        len(c.runs),
		LeasesGranted:     c.statLeasesGranted,
		LeasesCompleted:   c.statLeasesCompleted,
		LeasesExpired:     c.statLeasesExpired,
		LeasesRequeued:    c.statLeasesRequeued,
		LeasesAdopted:     c.statLeasesAdopted,
		UnitsDone:         c.statUnitsDone,
	}
	for _, r := range c.runs {
		for _, l := range r.leases {
			switch l.state {
			case leaseLeased:
				s.LeasesActive++
			case leasePending:
				s.LeasesPending++
			}
		}
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		up := now.Sub(w.registeredAt).Seconds()
		ws := WorkerStatus{ID: w.id, Name: w.name, UnitsDone: w.unitsDone, LeasesDone: w.leasesDone, UptimeSeconds: up}
		if up > 0 {
			ws.PointsPerSec = float64(w.unitsDone) / up
		}
		s.Workers = append(s.Workers, ws)
	}
	return s
}

var _ job.Distributor = (*Coordinator)(nil)
