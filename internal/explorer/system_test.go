package explorer

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"coldtall/internal/dram"
	"coldtall/internal/workload"
)

func systemFixture(t *testing.T) (workload.Profile, dram.Model) {
	t.Helper()
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := dram.New(dram.DDR4(), 300)
	if err != nil {
		t.Fatal(err)
	}
	return prof, mem
}

// TestSystemImpactKeysMissesByProfile pins the miss memo to the whole
// profile: a user workload that shares a stock benchmark's name but not its
// parameters must get its own simulation, not the stock miss rates.
func TestSystemImpactKeysMissesByProfile(t *testing.T) {
	stock, mem := systemFixture(t)
	custom := stock
	custom.LLCFrac = stock.LLCFrac / 4
	custom.BigSetBytes = stock.BigSetBytes / 64
	a, err := exp(t).SystemImpact(context.Background(), Baseline(), stock, mem)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exp(t).SystemImpact(context.Background(), Baseline(), custom, mem)
	if err != nil {
		t.Fatal(err)
	}
	if a.L1MissRate == b.L1MissRate || a.LLCMissRate == b.LLCMissRate {
		t.Errorf("profiles named %q with different parameters share miss rates: L1 %g vs %g, LLC %g vs %g",
			stock.Name, a.L1MissRate, b.L1MissRate, a.LLCMissRate, b.LLCMissRate)
	}
}

var replayOnceRuns atomic.Int32

// TestSystemImpactReplaysOncePerProfile has many callers ask for one
// profile's impact at the same moment: all of them get the same Impact
// from a single hierarchy replay.
func TestSystemImpactReplaysOncePerProfile(t *testing.T) {
	prof, mem := systemFixture(t)
	// A profile no other test, and no earlier -count run, has simulated.
	prof.Name = fmt.Sprintf("replay-once-%d", replayOnceRuns.Add(1))
	e := exp(t)
	if _, err := e.Characterize(Baseline()); err != nil {
		t.Fatal(err) // keep the array search out of the race window
	}

	const n = 16
	before := missReplays.Load()
	start := make(chan struct{})
	impacts := make([]Impact, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			impacts[i], errs[i] = e.SystemImpact(context.Background(), Baseline(), prof, mem)
		}(i)
	}
	close(start)
	wg.Wait()

	if got := missReplays.Load() - before; got != 1 {
		t.Errorf("%d concurrent callers ran %d replays, want 1", n, got)
	}
	for i := range impacts {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(impacts[i], impacts[0]) {
			t.Errorf("caller %d got %+v, caller 0 got %+v", i, impacts[i], impacts[0])
		}
	}
}

// TestSystemImpactHonoursContext: under a cancelled context, a point no
// one has characterized and a profile no one has replayed yield
// context.Canceled with neither an array search nor a hierarchy replay
// run.
func TestSystemImpactHonoursContext(t *testing.T) {
	prof, mem := systemFixture(t)
	prof.Name = fmt.Sprintf("cancelled-%d", replayOnceRuns.Add(1))
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := missReplays.Load()
	if _, err := e.SystemImpact(ctx, EDRAMAt(350), prof, mem); !errors.Is(err, context.Canceled) {
		t.Fatalf("SystemImpact under a cancelled context: err = %v, want context.Canceled", err)
	}
	if n := e.OptimizeCalls(); n != 0 {
		t.Errorf("a cancelled SystemImpact ran %d array searches", n)
	}
	if n := missReplays.Load() - before; n != 0 {
		t.Errorf("a cancelled SystemImpact ran %d miss replays", n)
	}
}
