package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachContextPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEachContext(ctx, 100, workers, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: %d items ran on a pre-cancelled context", workers, got)
		}
	}
}

func TestForEachContextStopsDispatchingAfterCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		var cancelled atomic.Bool
		var late atomic.Int64 // items that started after cancel() returned
		err := ForEachContext(ctx, 1000, workers, func(i int) error {
			if cancelled.Load() {
				late.Add(1)
			}
			if ran.Add(1) == 3 {
				cancel()
				cancelled.Store(true)
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A worker may have passed its ctx check just before the cancel
		// and start one more item (at most one per worker), but the vast
		// majority of the sweep must never be dispatched. Items counted
		// from inside the cancelling call would also include whatever the
		// other workers ran while the canceller was preempted.
		if got := late.Load(); got > int64(workers) {
			t.Errorf("workers=%d: %d items started after cancellation", workers, got)
		}
		cancel()
	}
}

func TestForEachContextItemErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := ForEachContext(ctx, 10, 1, func(i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the item error to win over cancellation", err)
	}
}

// TestMapContextBackgroundMatchesMap: under a context that is never done,
// the pooled MapContext matches the serial one (the plain map) index for
// index.
func TestMapContextBackgroundMatchesMap(t *testing.T) {
	square := func(i int) (int, error) { return i * i, nil }
	plain, err := MapContext(context.Background(), 8, 1, square)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := MapContext(context.Background(), 8, 4, square)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != ctxed[i] {
			t.Fatalf("pooled MapContext diverges from the serial one at %d: %d vs %d", i, ctxed[i], plain[i])
		}
	}
}
