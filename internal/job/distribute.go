package job

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"coldtall/internal/array"
	"coldtall/internal/explorer"
)

// ErrNoWorkers reports that a Distributor has no live workers to lease
// work to. The manager treats it as "compute locally instead": a sweep or
// artifact job falls back to the in-process pool, so a coordinator with an
// empty worker table degrades to exactly the single-process behavior.
// Distributors may return it wrapped (errors.Is matches).
var ErrNoWorkers = errors.New("job: no cluster workers available")

// Distributor fans array characterizations out to remote workers. The
// cluster coordinator implements it; the manager consults it (when
// configured) to warm the explorer before evaluating or rendering
// locally. A characterization is the only thing that leaves the process:
// everything downstream of it (evaluation under a workload and a cooler,
// checkpoints, rendering) is cheap arithmetic that stays with the manager.
type Distributor interface {
	// DistributeChars characterizes points remotely and blocks until every
	// point has landed or the run fails. save(i, r) lands the array
	// characterization of points[i]; it fires exactly once per landed
	// point, possibly concurrently and in any order, and always before
	// DistributeChars returns — so progress ahead of an error is kept.
	DistributeChars(ctx context.Context, jobID string, points []explorer.DesignPoint, save func(i int, r array.Result)) error
}

// Backoff is the capped exponential retry schedule shared by the job
// manager's per-cell retries, the coordinator's lease requeues and the
// cluster worker's register/lease/ack loop: base doubling per completed
// attempt, never above max. attempt counts completed failures (attempt 1
// waits base). A non-nil rng jitters the top half of the delay ("equal
// jitter": at least half the deterministic delay, never more than all of
// it), so a fleet of workers bounced off a restarting coordinator
// desynchronizes instead of retrying in lockstep; nil keeps the schedule
// deterministic.
func Backoff(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if half := d / 2; half > 0 && rng != nil {
		return half + time.Duration(rng.Int63n(int64(d-half)+1))
	}
	return d
}
