package workload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// windowRuns makes each test's profile one that no other test, and no
// earlier -count run, has put in the window memo.
var windowRuns atomic.Int32

func freshProfile(t *testing.T) Profile {
	t.Helper()
	p, err := ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = fmt.Sprintf("window-%d", windowRuns.Add(1))
	return p
}

// TestWindowReplaysOncePerProfile has many callers ask for one profile's
// window at the same moment: all of them read one replay.
func TestWindowReplaysOncePerProfile(t *testing.T) {
	p := freshProfile(t)
	const n = 16
	before := windowReplays.Load()
	start := make(chan struct{})
	got := make([]Measured, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = Window(context.Background(), p)
		}(i)
	}
	close(start)
	wg.Wait()

	if r := windowReplays.Load() - before; r != 1 {
		t.Errorf("%d concurrent callers ran %d replays, want 1", n, r)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Errorf("caller %d got %+v, caller 0 got %+v", i, got[i], got[0])
		}
	}
	if got[0].Traffic.ReadsPerSec == 0 || got[0].MissRatios.L1D == 0 {
		t.Errorf("empty window: %+v", got[0])
	}
}

// TestWindowKeysByProfile pins the memo to the whole profile: a user
// workload that shares a stock benchmark's name but not its parameters
// gets its own replay, not the stock window.
func TestWindowKeysByProfile(t *testing.T) {
	stock, err := ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	custom := stock
	custom.LLCFrac = stock.LLCFrac / 4
	custom.BigSetBytes = stock.BigSetBytes / 64
	a, err := Window(context.Background(), stock)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Window(context.Background(), custom)
	if err != nil {
		t.Fatal(err)
	}
	if a.MissRatios.L1D == b.MissRatios.L1D || a.MissRatios.LLC == b.MissRatios.LLC || a.Traffic == b.Traffic {
		t.Errorf("profiles named %q with different parameters share a window: %+v vs %+v", stock.Name, a, b)
	}
}

// TestWindowHonoursContext: a ctx already done yields its error with no
// replay, whether the profile's window is memoized or not.
func TestWindowHonoursContext(t *testing.T) {
	p := freshProfile(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := windowReplays.Load()
	if _, err := Window(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Window on a memo miss under a cancelled context: err = %v, want context.Canceled", err)
	}
	if r := windowReplays.Load() - before; r != 0 {
		t.Errorf("a cancelled Window ran %d replays", r)
	}
	if _, err := Window(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if _, err := Window(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Window on a memo hit under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// cutAfter is a context whose Err turns to context.Canceled after n
// calls: Window's own check, then one per replayed chunk.
type cutAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cutAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestWindowCutShortIsNotMemoized: a replay that ctx stops mid-window
// leaves nothing in the memo, so the next caller replays the whole window
// and reads what a serial Measure of it reads.
func TestWindowCutShortIsNotMemoized(t *testing.T) {
	p := freshProfile(t)
	ctx := &cutAfter{Context: context.Background()}
	ctx.n.Store(3)
	before := windowReplays.Load()
	if _, err := Window(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("Window cut short: err = %v, want context.Canceled", err)
	}
	w, err := Window(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r := windowReplays.Load() - before; r != 2 {
		t.Errorf("a cut-short replay and its rerun ran %d replays, want 2", r)
	}
	want, err := Measure(context.Background(), p, WindowAccesses, windowSeed)
	if err != nil {
		t.Fatal(err)
	}
	if w.Traffic != want {
		t.Errorf("rerun window traffic %+v, serial Measure %+v", w.Traffic, want)
	}
}
