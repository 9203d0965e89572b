package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"coldtall/internal/explorer"
	"coldtall/internal/job"
)

// errReregister signals that the coordinator no longer knows this worker
// (restart or heartbeat lapse) and the loop should register again.
var errReregister = errors.New("cluster: registration lapsed")

// WorkerOptions configures a stateless worker replica.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// Token is the shared worker auth token, when the coordinator
	// requires one.
	Token string
	// Name is an optional stable display name.
	Name string
	// Poll overrides the coordinator-suggested idle poll interval.
	Poll time.Duration
	// BackoffBase/BackoffMax shape the jittered capped exponential retry
	// schedule (job.Backoff with Rand) for register, lease-fetch and ack
	// failures (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Throttle sleeps before each point's characterization — a demo/test
	// knob that makes "killed mid-lease" scenarios deterministic.
	Throttle time.Duration
	// Rand supplies retry jitter; nil seeds from the clock. Inject a
	// seeded source to make the schedule reproducible.
	Rand *rand.Rand
	// HTTPClient overrides the default 30s-timeout client.
	HTTPClient *http.Client
	// Logger receives lifecycle events; nil discards them.
	Logger *log.Logger
}

// RunWorker runs a stateless worker until ctx is cancelled: register,
// heartbeat, and a pull loop that leases design-point ranges,
// characterizes them serially in lease order (family-contiguous, so
// characterization warm-starts survive within each lease and across the
// leases the consistent-hash ring routes here), and acks the results. The worker
// holds no durable state — all checkpointing happens coordinator-side —
// so killing one at any instant loses nothing but its in-flight lease.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Coordinator == "" {
		return errors.New("cluster: worker needs a coordinator URL")
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	w := &clusterWorker{opts: opts, client: opts.HTTPClient, rng: opts.Rand, exp: explorer.New()}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		reg, err := w.register(ctx)
		if err != nil {
			return err
		}
		w.logf("registered as %s", reg.WorkerID)
		if err := w.serve(ctx, reg); !errors.Is(err, errReregister) {
			return err
		}
		w.logf("registration lapsed; re-registering")
	}
}

type clusterWorker struct {
	opts   WorkerOptions
	client *http.Client
	rng    *rand.Rand
	// exp characterizes every lease; it lives as long as the worker, so
	// its warm cache survives re-registration.
	exp *explorer.Explorer
}

func (w *clusterWorker) logf(format string, args ...any) {
	if w.opts.Logger != nil {
		w.opts.Logger.Printf("worker: "+format, args...)
	}
}

// register joins the cluster, retrying transient failures with jittered
// backoff. A model-version conflict is fatal: this binary cannot produce
// byte-identical results under the coordinator's physics.
func (w *clusterWorker) register(ctx context.Context) (RegisterResponse, error) {
	for attempt := 1; ; attempt++ {
		var resp RegisterResponse
		status, err := w.post(ctx, "/v1/cluster/register", RegisterRequest{Name: w.opts.Name, Version: explorer.ModelVersion}, &resp)
		if err == nil {
			return resp, nil
		}
		if status == http.StatusConflict {
			return resp, err
		}
		if ctx.Err() != nil {
			return resp, ctx.Err()
		}
		w.logf("register (attempt %d): %v", attempt, err)
		if serr := w.sleep(ctx, job.Backoff(attempt, w.opts.BackoffBase, w.opts.BackoffMax, w.rng)); serr != nil {
			return resp, serr
		}
	}
}

// serve is the pull loop for one registration: heartbeat in the
// background, lease-characterize-ack in the foreground.
func (w *clusterWorker) serve(ctx context.Context, reg RegisterResponse) error {
	hb := time.Duration(reg.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = 5 * time.Second
	}
	poll := w.opts.Poll
	if poll <= 0 {
		poll = time.Duration(reg.PollMS) * time.Millisecond
	}
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lost := make(chan struct{}, 1)
	go w.heartbeatLoop(hctx, reg.WorkerID, hb, lost)

	attempt := 0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-lost:
			return errReregister
		default:
		}
		var lease Lease
		status, err := w.post(ctx, "/v1/cluster/lease", LeaseRequest{WorkerID: reg.WorkerID}, &lease)
		switch {
		case status == http.StatusNotFound:
			return errReregister
		case status == http.StatusNoContent:
			attempt = 0
			if err := w.sleep(ctx, poll); err != nil {
				return err
			}
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			attempt++
			w.logf("lease (attempt %d): %v", attempt, err)
			if serr := w.sleep(ctx, job.Backoff(attempt, w.opts.BackoffBase, w.opts.BackoffMax, w.rng)); serr != nil {
				return serr
			}
		default:
			attempt = 0
			if err := w.process(ctx, reg.WorkerID, lease); err != nil {
				return err
			}
		}
	}
}

func (w *clusterWorker) heartbeatLoop(ctx context.Context, workerID string, interval time.Duration, lost chan<- struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, _ := w.post(ctx, "/v1/cluster/heartbeat", HeartbeatRequest{WorkerID: workerID}, nil)
			if status == http.StatusNotFound {
				select {
				case lost <- struct{}{}:
				default:
				}
				return
			}
		}
	}
}

// process characterizes one lease's points serially in lease order and acks
// the outcome, retrying the ack with jittered backoff. A superseded lease
// (410) is dropped without complaint: the coordinator already completed
// or requeued it, and determinism makes either resolution correct.
func (w *clusterWorker) process(ctx context.Context, workerID string, lease Lease) error {
	w.logf("lease %s: %d point(s)", lease.ID, len(lease.Units))
	results := make([][]byte, 0, len(lease.Units))
	failure := ""
	for _, u := range lease.Units {
		if w.opts.Throttle > 0 {
			if err := w.sleep(ctx, w.opts.Throttle); err != nil {
				return err
			}
		}
		raw, err := w.characterize(ctx, u)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failure = fmt.Sprintf("unit %s: %v", u.Key, err)
			break
		}
		results = append(results, raw)
	}
	req := AckRequest{WorkerID: workerID, LeaseID: lease.ID}
	if failure != "" {
		req.Error = failure
	} else {
		req.Results = results
	}
	for attempt := 1; ; attempt++ {
		var resp AckResponse
		status, err := w.post(ctx, "/v1/cluster/ack", req, &resp)
		switch {
		case err == nil:
			if resp.Status == "duplicate" {
				w.logf("lease %s: already completed elsewhere", lease.ID)
			}
			return nil
		case status == http.StatusGone:
			w.logf("lease %s: superseded; dropping results", lease.ID)
			return nil
		case status == http.StatusBadRequest:
			// The coordinator rejected (and requeued) the ack; nothing to
			// retry on this side.
			w.logf("lease %s: ack rejected: %v", lease.ID, err)
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		}
		w.logf("ack lease %s (attempt %d): %v", lease.ID, attempt, err)
		if serr := w.sleep(ctx, job.Backoff(attempt, w.opts.BackoffBase, w.opts.BackoffMax, w.rng)); serr != nil {
			return serr
		}
	}
}

func (w *clusterWorker) characterize(ctx context.Context, u Unit) ([]byte, error) {
	var p explorer.DesignPoint
	if err := decodeGob(u.Payload, &p); err != nil {
		return nil, err
	}
	res, err := w.exp.CharacterizeContext(ctx, p)
	if err != nil {
		return nil, err
	}
	return encodeGob(res)
}

func (w *clusterWorker) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// post sends one JSON request; 4xx/5xx answers decode the server's
// {"error": ...} into the returned error. The status code comes back even
// alongside an error so callers can branch on 404/409/410.
func (w *clusterWorker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(w.opts.Coordinator, "/")+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.opts.Token != "" {
		req.Header.Set(WorkerTokenHeader, w.opts.Token)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return resp.StatusCode, fmt.Errorf("cluster: %s: %s", path, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
