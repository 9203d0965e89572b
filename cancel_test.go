package coldtall

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"coldtall/internal/array"
)

// TestCancelledStudyDoesNoWork builds every registry artifact from a fresh
// study under an already-cancelled context: each generator runs its grid
// through the explorer under the study's context, so each must report the
// cancellation before the optimizer runs once. Table I is constant and may
// succeed.
func TestCancelledStudyDoesNoWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Artifacts().Names() {
		s := NewStudy()
		_, err := s.WithContext(ctx).ArtifactTable(name)
		if calls := s.Explorer().OptimizeCalls(); calls != 0 {
			t.Errorf("%s: cancelled build ran the optimizer %d times, want 0", name, calls)
		}
		if name == "table1" {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled build returned %v, want an error wrapping context.Canceled", name, err)
		}
	}
}

// cancelOnLoad is a characterization tier that never hits and cancels the
// study's context on its at-th Load.
type cancelOnLoad struct {
	loads  atomic.Int32
	at     int32
	cancel context.CancelFunc
}

func (c *cancelOnLoad) Load(string) (array.Result, bool) {
	if c.loads.Add(1) == c.at {
		c.cancel()
	}
	return array.Result{}, false
}

func (c *cancelOnLoad) Store(string, array.Result) {}

// TestTable2StopsMidBuild cancels a serial Table II build on its second
// characterization lookup: the candidate ranking runs on the study's
// context, so the build fails within a point or two instead of
// characterizing all of TableIICandidates first.
func TestTable2StopsMidBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewStudy()
	s.SetParallelism(1)
	s.Explorer().SetPersistence(&cancelOnLoad{at: 2, cancel: cancel})
	rows, err := s.WithContext(ctx).Table2()
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("Table2 = %d rows, %v; want no rows and an error wrapping context.Canceled", len(rows), err)
	}
	if calls := s.Explorer().OptimizeCalls(); calls > 3 {
		t.Errorf("cancelled Table2 ran the optimizer %d times, want at most 3", calls)
	}
}
