package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 17} {
		if got := Workers(n); got != n {
			t.Errorf("Workers(%d) = %d, want %d", n, got, n)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 257
			counts := make([]int32, n)
			err := ForEachContext(context.Background(), n, workers, func(i int) error {
				atomic.AddInt32(&counts[i], 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("index %d visited %d times", i, c)
				}
			}
		})
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	if err := ForEachContext(context.Background(), 0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachContext(context.Background(), -5, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestForEachFirstErrorByInputOrder pins the determinism contract: no matter
// which worker fails first in wall-clock time, the reported error is the
// lowest-index failure — identical to what the serial loop would return.
func TestForEachFirstErrorByInputOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			err := ForEachContext(context.Background(), 100, workers, func(i int) error {
				if i%10 == 3 { // fails at 3, 13, 23, ...
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "item 3" {
				t.Fatalf("got %v, want item 3", err)
			}
		})
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	err := ForEachContext(context.Background(), 8, 4, func(i int) error {
		if i == 5 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 32} {
		got, err := MapContext(context.Background(), 50, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapErrorDropsResults(t *testing.T) {
	sentinel := errors.New("nope")
	got, err := MapContext(context.Background(), 10, 4, func(i int) (int, error) {
		if i == 7 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if got != nil {
		t.Fatalf("partial results returned alongside error")
	}
}

// TestFlightDedupesConcurrentCallers is the core singleflight guarantee: N
// callers overlapping one in-flight key share exactly one execution. The
// gate stays closed until every follower has registered on the leader's
// flight — without that, a follower scheduled after the leader completed
// would correctly start a fresh flight and the count would exceed one.
func TestFlightDedupesConcurrentCallers(t *testing.T) {
	var f Flight[int]
	var calls atomic.Int32
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	const n = 32

	var wg sync.WaitGroup
	results := make([]int, n)
	errs := make([]error, n)
	run := func(i int) {
		defer wg.Done()
		results[i], errs[i] = f.Do(context.Background(), "k", func() (int, error) {
			calls.Add(1)
			close(leaderIn)
			<-gate // hold the flight open until every follower has joined
			return 42, nil
		})
	}
	wg.Add(1)
	go run(0)
	<-leaderIn // the leader's fn is running, so the key is in flight
	f.mu.Lock()
	c := f.m["k"]
	f.mu.Unlock()
	for i := 1; i < n; i++ {
		wg.Add(1)
		go run(i)
	}
	// Every follower must be parked on the leader's flight before the gate
	// opens; after it opens the flight completes and the key is retired.
	for c.waiters.Load() < n-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn executed %d times for one key, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d: got (%d, %v), want (42, nil)", i, results[i], errs[i])
		}
	}
}

func TestFlightDistinctKeysDoNotBlock(t *testing.T) {
	var f Flight[string]
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			v, err := f.Do(context.Background(), key, func() (string, error) { return key, nil })
			if err != nil || v != key {
				t.Errorf("key %s: got (%q, %v)", key, v, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestFlightErrorShared(t *testing.T) {
	var f Flight[int]
	sentinel := errors.New("optimize failed")
	gate := make(chan struct{})
	var started atomic.Bool

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.Do(context.Background(), "k", func() (int, error) {
				started.Store(true)
				<-gate
				return 0, sentinel
			})
		}(i)
	}
	for !started.Load() {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, sentinel) {
			t.Fatalf("caller %d: got %v, want shared sentinel", i, err)
		}
	}
}

func TestFlightForgetsCompletedCalls(t *testing.T) {
	var f Flight[int]
	var calls int
	for i := 0; i < 3; i++ {
		v, err := f.Do(context.Background(), "k", func() (int, error) { calls++; return calls, nil })
		if err != nil {
			t.Fatal(err)
		}
		if v != i+1 {
			t.Fatalf("sequential call %d returned %d; completed flights must not memoize", i, v)
		}
	}
}

func TestFlightPanicPropagatesAsError(t *testing.T) {
	var f Flight[int]
	_, err := f.Do(context.Background(), "k", func() (int, error) { panic("boom") })
	if err == nil {
		t.Fatal("panic swallowed")
	}
	// The flight must be cleaned up so the key is usable again.
	v, err := f.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("key unusable after panic: (%d, %v)", v, err)
	}
}

// joinFlight starts a follower of the in-flight key k on its own goroutine
// and returns once it is parked on the flight; the follower's result
// arrives on the returned channel.
func joinFlight(f *Flight[int], ctx context.Context, fn func() (int, error)) <-chan error {
	f.mu.Lock()
	c := f.m["k"]
	f.mu.Unlock()
	before := c.waiters.Load()
	out := make(chan error, 1)
	go func() {
		v, err := f.Do(ctx, "k", fn)
		if err == nil && v != 2 {
			err = fmt.Errorf("follower got %d, want its own result 2", v)
		}
		out <- err
	}()
	for c.waiters.Load() == before {
		runtime.Gosched()
	}
	return out
}

// TestFlightFollowerLeadsAfterLeaderCancelled: a leader that ends in its
// own context's cancellation does not hand that error to a follower whose
// context is live; the follower leads a new flight and gets its own result.
func TestFlightFollowerLeadsAfterLeaderCancelled(t *testing.T) {
	var f Flight[int]
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := f.Do(leaderCtx, "k", func() (int, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return 0, fmt.Errorf("search aborted: %w", leaderCtx.Err())
		})
		leaderErr <- err
	}()
	<-leaderIn
	follower := joinFlight(&f, context.Background(), func() (int, error) { return 2, nil })
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	if err := <-follower; err != nil {
		t.Fatalf("live follower: %v", err)
	}
}

// TestFlightFollowerStopsOnOwnCancel: a follower whose own context ends
// returns at once with that error, while the leader is still computing.
func TestFlightFollowerStopsOnOwnCancel(t *testing.T) {
	var f Flight[int]
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		f.Do(context.Background(), "k", func() (int, error) {
			close(leaderIn)
			<-gate
			return 1, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	follower := joinFlight(&f, ctx, func() (int, error) { return 2, nil })
	cancel()
	if err := <-follower; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower err = %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
}

// TestFlightDeadlineRerunNeedsMoreTime: when a leader runs out of its
// deadline, a follower with no deadline leads a new flight, while a
// follower with less time left than the leader ran shares the leader's
// DeadlineExceeded without running its fn.
func TestFlightDeadlineRerunNeedsMoreTime(t *testing.T) {
	var f Flight[int]
	leaderCtx, cancelLeader := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancelLeader()
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := f.Do(leaderCtx, "k", func() (int, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return 0, fmt.Errorf("search aborted: %w", leaderCtx.Err())
		})
		leaderErr <- err
	}()
	<-leaderIn
	// Arriving after the leader, this follower's deadline ends 100 ms
	// after the leader's: far less time than the leader's 200 ms run.
	shortCtx, cancelShort := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancelShort()
	short := joinFlight(&f, shortCtx, func() (int, error) {
		t.Error("a follower with less time left than the leader ran reran the flight")
		return 2, nil
	})
	open := joinFlight(&f, context.Background(), func() (int, error) { return 2, nil })
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want its own deadline", err)
	}
	if err := <-short; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("short-deadline follower err = %v, want the shared DeadlineExceeded", err)
	}
	if err := <-open; err != nil {
		t.Errorf("deadline-free follower: %v", err)
	}
}
