package array

import (
	"context"
	"errors"
	"sync"
	"testing"

	"coldtall/internal/cell"
)

func TestOptimizeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	if _, _, err := OptimizeWithStats(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeWithStats err = %v, want context.Canceled", err)
	}
	if _, err := ParetoContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("ParetoContext err = %v, want context.Canceled", err)
	}
}

// countdownCtx is live for its first k-1 cancellation checks and reports
// context.Canceled from the k-th on (Err or Done, whichever the code under
// test polls), so a test cancels a search at an exact point of its
// progress instead of racing a timer against it.
type countdownCtx struct {
	context.Context
	k    int
	done chan struct{}

	mu     sync.Mutex
	checks int
}

func newCountdownCtx(k int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

// check counts one poll and reports whether the context is now cancelled.
func (c *countdownCtx) check() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if c.checks == c.k {
		close(c.done)
	}
	return c.checks >= c.k
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.check()
	return c.done
}

func (c *countdownCtx) Err() error {
	if c.check() {
		return context.Canceled
	}
	return nil
}

// TestOptimizeContextCancelledMidSearch proves a cancelled search neither
// returns a partial best nor keeps sweeping: cancelled at its k-th check,
// after some candidates were already visited, the search fails with the
// cancellation error and polls the context no further.
func TestOptimizeContextCancelledMidSearch(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	for _, k := range []int{2, 3, 50} {
		ctx := newCountdownCtx(k)
		_, _, err := OptimizeWithStats(ctx, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if ctx.checks != k {
			t.Errorf("k=%d: search polled the context %d times, want it to stop at the first cancelled check", k, ctx.checks)
		}
	}
}

// TestOptimizeBackgroundUnaffected pins that polling a live cancellable
// context does not move the search: it selects what the uncancellable
// Background search selects.
func TestOptimizeBackgroundUnaffected(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, planar)
	plain, err := optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live, _, err := OptimizeWithStats(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Org != live.Org || plain.ReadLatency != live.ReadLatency {
		t.Errorf("search under a live context diverges from Background: %v vs %v", live.Org, plain.Org)
	}
}
