// Package parallel provides the concurrency primitives every sweep in the
// repository runs on: a bounded worker pool with deterministic output
// ordering and a singleflight group that deduplicates concurrent
// computations of the same key. Centralizing them keeps the parallel code
// paths small, audited, and race-detector-clean in one place.
//
// The primitives are deliberately deterministic at the output level: ForEach
// and Map index results by input position, so a parallel sweep produces
// byte-identical artifacts to its serial equivalent no matter how the
// scheduler interleaves the workers. That property is what the golden
// regression tests at the repository root pin down.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalizes a worker-count knob: values below 1 (the zero value of
// a config field) mean "one worker per available CPU", anything else is
// taken literally. Every layer exposing a parallelism knob funnels it
// through this so 0 always means "as parallel as the hardware allows" and 1
// always means "serial".
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for i in [0, n) on at most workers goroutines
// (normalized through Workers) and returns the first error by input order.
// Work is handed out through a single shared index so the pool load-balances
// uneven items; callers write results into position i of a pre-sized slice,
// which keeps output ordering deterministic regardless of scheduling.
//
// All n items are attempted even after a failure — items are independent in
// every sweep here, and finishing the batch keeps caches warm for the next
// call — but the error reported is always the lowest-index one, so the
// serial and parallel paths surface the same failure.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachContext(context.Background(), n, workers, fn)
}

// ForEachContext is ForEach with cooperative cancellation: once ctx is
// done, no further items are dispatched (items already running finish) and
// the sweep reports the cancellation. A cancelled sweep therefore stops
// burning worker-pool CPU within one item's latency — the property that
// lets an aborted HTTP request or a Ctrl-C on the CLI reclaim the pool
// mid-sweep.
//
// Error precedence: an item error (lowest input index among items that ran)
// wins over the cancellation error, so a sweep that genuinely failed before
// the cancellation still reports its own failure.
func ForEachContext(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachProgressContext(ctx, n, workers, fn, nil)
}

// ForEachProgressContext is ForEachContext with a per-item completion
// hook: progress(done) fires after every item that returns nil, where done
// is the cumulative count of completed items. It is the observation point
// the async sweep job reports its progress from (through
// explorer.EvaluateAllProgress).
//
// The hook may be called concurrently from several workers and the done
// values, while each unique and drawn from 1..n, may arrive out of order;
// callers tracking high-water progress should keep the maximum. A nil
// progress is ignored.
func ForEachProgressContext(ctx context.Context, n, workers int, fn func(i int) error, progress func(done int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		// The serial path keeps single-threaded callers allocation-free
		// and is the reference semantics the parallel path must match.
		var first error
		done := 0
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if first != nil {
					return first
				}
				return fmt.Errorf("parallel: sweep cancelled at item %d of %d: %w", i, n, err)
			}
			if err := fn(i); err != nil {
				if first == nil {
					first = err
				}
			} else {
				done++
				if progress != nil {
					progress(done)
				}
			}
		}
		return first
	}
	errs := make([]error, n)
	var next int
	var done atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if errs[i] = safeCall(fn, i); errs[i] == nil && progress != nil {
					progress(int(done.Add(1)))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("parallel: sweep cancelled: %w", err)
	}
	return nil
}

// safeCall invokes fn(i), converting a panic into an error so one bad item
// cannot take down the whole pool (and with it every sibling sweep).
func safeCall(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: item %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Map runs fn over [0, n) on the pool and collects the results in input
// order — the ordered-collect primitive the figure sweeps use.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapContext(context.Background(), n, workers, fn)
}

// MapContext is Map with cooperative cancellation (see ForEachContext).
func MapContext[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachContext(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Flight deduplicates concurrent computations of the same key: while one
// caller computes, every other caller of that key blocks and shares the
// single result. It is the guard between internal/cache's
// check-then-compute gap and the expensive computation behind it.
//
// Like golang.org/x/sync/singleflight (not vendored here), completed
// flights are forgotten immediately — keeping results is internal/cache's
// job.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	// waiters counts callers sharing this flight beyond the leader (used
	// by tests to deterministically hold a flight open until every
	// follower has joined).
	waiters atomic.Int32
	val     V
	err     error
	// ran is how long the leader's fn took.
	ran time.Duration
}

// Do returns the result of fn for key, executing fn at most once across all
// concurrent callers of the same key. The first caller leads: it runs fn.
// Callers arriving while it is in flight follow: they wait and share its
// result. Callers of distinct keys never block each other.
//
// Cancellation is each caller's own. A follower stops waiting as soon as
// its ctx is done and returns ctx.Err(). A follower whose ctx is still
// live, but whose leader ended in context.Canceled, does not inherit that
// error: the leader's context ended, not its own, so it leads a new flight
// with its own fn. After a leader's context.DeadlineExceeded it does the
// same only if it has more time left than the leader's fn ran (no
// deadline at all, say); a rerun with less would expire too, so it shares
// the leader's error instead.
func (f *Flight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	for {
		f.mu.Lock()
		if f.m == nil {
			f.m = make(map[string]*flightCall[V])
		}
		c, ok := f.m[key]
		if !ok {
			c = &flightCall[V]{done: make(chan struct{})}
			f.m[key] = c
			f.mu.Unlock()
			f.lead(key, c, fn)
			return c.val, c.err
		}
		c.waiters.Add(1)
		f.mu.Unlock()
		select {
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		case <-c.done:
		}
		if !errors.Is(c.err, context.Canceled) && !errors.Is(c.err, context.DeadlineExceeded) {
			return c.val, c.err
		}
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, err
		}
		if dl, ok := ctx.Deadline(); ok && errors.Is(c.err, context.DeadlineExceeded) && time.Until(dl) <= c.ran {
			return c.val, c.err
		}
	}
}

// lead runs fn for the flight c, then retires the key and releases the
// followers.
func (f *Flight[V]) lead(key string, c *flightCall[V], fn func() (V, error)) {
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("parallel: flight %q panicked: %v", key, r)
			}
		}()
		c.val, c.err = fn()
	}()
	c.ran = time.Since(start)

	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}
