package array

import (
	"context"
	"errors"
	"sync"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
)

func TestOptimizeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	if _, err := OptimizeContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeContext err = %v, want context.Canceled", err)
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
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	for _, k := range []int{2, 3, 50} {
		resetSearchMemo()
		ctx := newCountdownCtx(k)
		_, err := OptimizeContext(ctx, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if ctx.checks != k {
			t.Errorf("k=%d: search polled the context %d times, want it to stop at the first cancelled check", k, ctx.checks)
		}
	}
}

func TestOptimizeBackgroundUnaffected(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	plain, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Org != ctxed.Org || plain.ReadLatency != ctxed.ReadLatency {
		t.Errorf("OptimizeContext(Background) diverges from Optimize: %v vs %v", ctxed.Org, plain.Org)
	}
}
