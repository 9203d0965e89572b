package explorer

// Concurrency tests for the sweep engine: these are written to be run under
// the race detector (make check runs go test -race ./...), and they force
// multi-worker pools explicitly so the concurrent paths execute even when
// GOMAXPROCS is 1.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"coldtall/internal/array"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// TestCharacterizeSingleflight pins the duplicate-compute fix: N concurrent
// callers of the same design point must share exactly one array.Optimize
// invocation. Before the singleflight guard, every caller that missed the
// cache raced into its own optimization.
func TestCharacterizeSingleflight(t *testing.T) {
	e := New()
	p := Baseline()
	const n = 16

	start := make(chan struct{})
	results := make([]array.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start // line every caller up on the same cold cache
			results[i], errs[i] = e.CharacterizeContext(context.Background(), p)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d got a different characterization", i)
		}
	}
	if got := e.OptimizeCalls(); got != 1 {
		t.Errorf("array.Optimize ran %d times for %d concurrent callers of one point, want 1", got, n)
	}

	// A later caller hits the cache without a new optimization.
	if _, err := e.CharacterizeContext(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if got := e.OptimizeCalls(); got != 1 {
		t.Errorf("cache hit re-ran Optimize (%d calls)", got)
	}
}

// TestCharacterizeDistinctPointsConcurrently checks that the singleflight
// guard does not serialize unrelated points: each key optimizes once, and
// no goroutine blocks another key's computation (the race detector guards
// the cache accesses).
func TestCharacterizeDistinctPointsConcurrently(t *testing.T) {
	e := New()
	points := []DesignPoint{
		Baseline(),
		SRAMAt(tech.TempCryo77),
		EDRAMAt(tech.TempHot350),
		EDRAMAt(tech.TempCryo77),
	}
	const callersPerPoint = 4

	var wg sync.WaitGroup
	start := make(chan struct{})
	for range [callersPerPoint]struct{}{} {
		for _, p := range points {
			wg.Add(1)
			go func(p DesignPoint) {
				defer wg.Done()
				<-start
				if _, err := e.CharacterizeContext(context.Background(), p); err != nil {
					t.Error(err)
				}
			}(p)
		}
	}
	close(start)
	wg.Wait()

	if got := e.OptimizeCalls(); got != int64(len(points)) {
		t.Errorf("Optimize ran %d times for %d distinct points, want one each", got, len(points))
	}
}

// TestEvaluateAllParallelMatchesSerial is the engine's determinism
// contract at the grid level: the same grid evaluated serially and on a
// forced 8-worker pool must be deeply equal, cell for cell.
func TestEvaluateAllParallelMatchesSerial(t *testing.T) {
	points := []DesignPoint{Baseline(), SRAMAt(tech.TempCryo77), EDRAMAt(tech.TempCryo77)}
	traffics := workload.StaticTraffic()[:5]

	serial := New()
	serial.Workers = 1
	want, err := serial.EvaluateAllContext(context.Background(), points, traffics)
	if err != nil {
		t.Fatal(err)
	}

	par := New()
	par.Workers = 8
	got, err := par.EvaluateAllContext(context.Background(), points, traffics)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Error("parallel EvaluateAll diverged from the serial walk")
	}
}

// TestEvaluateConcurrentMixedPoints hammers EvaluateContext (which reaches
// the cache through both CharacterizeContext and the slowdown baseline)
// from many goroutines — a pure race-detector workout for the evaluation
// path.
func TestEvaluateConcurrentMixedPoints(t *testing.T) {
	e := New()
	e.Workers = 8
	points := []DesignPoint{Baseline(), EDRAMAt(tech.TempCryo77)}
	traffics := workload.StaticTraffic()[:4]

	var wg sync.WaitGroup
	for _, p := range points {
		for _, tr := range traffics {
			wg.Add(1)
			go func(p DesignPoint, tr workload.Traffic) {
				defer wg.Done()
				if _, err := e.EvaluateContext(context.Background(), p, tr); err != nil {
					t.Error(err)
				}
			}(p, tr)
		}
	}
	wg.Wait()

	// Three unique characterizations: the two points plus the slowdown
	// baseline shared by every cell (Baseline is one of the points here).
	if got := e.OptimizeCalls(); got != 2 {
		t.Errorf("Optimize ran %d times, want 2 (one per unique point)", got)
	}
}

// TestEvaluateAllMatchesSerialWalk pins the placement contract: the pooled
// dispatch must land every cell at its input position, so the grid equals
// the naive serial walk cell for cell.
func TestEvaluateAllMatchesSerialWalk(t *testing.T) {
	pts := []DesignPoint{SRAMAt(350), EDRAMAt(77), SRAMAt(77), EDRAMAt(350)}
	traffics := []workload.Traffic{
		{ReadsPerSec: 1e8, WritesPerSec: 4e7},
		{ReadsPerSec: 2e9, WritesPerSec: 9e8},
	}
	e := New()
	got, err := e.EvaluateAllContext(context.Background(), pts, traffics)
	if err != nil {
		t.Fatalf("EvaluateAll: %v", err)
	}
	want := make([][]Evaluation, len(pts))
	for i, p := range pts {
		want[i] = make([]Evaluation, len(traffics))
		for j, tr := range traffics {
			ev, err := e.EvaluateContext(context.Background(), p, tr)
			if err != nil {
				t.Fatalf("Evaluate(%s): %v", p.Label, err)
			}
			want[i][j] = ev
		}
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("cell [%d][%d] differs from serial walk:\ngrid:   %+v\nserial: %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEvaluateAllProgressCharacterizesOnce pins the sweep schedule: the
// baseline and each distinct point are characterized once, however many
// cells and duplicate points the grid holds, and progress counts every
// cell up to the grid size.
func TestEvaluateAllProgressCharacterizesOnce(t *testing.T) {
	pts := []DesignPoint{EDRAMAt(77), SRAMAt(77), EDRAMAt(77), SRAMAt(227)}
	traffics := workload.StaticTraffic()[:3]
	e := New()
	e.Workers = 4
	var mu sync.Mutex
	calls, high := 0, 0
	if _, err := e.EvaluateAllProgress(context.Background(), pts, traffics, func(done int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		high = max(high, done)
	}); err != nil {
		t.Fatal(err)
	}
	n := len(pts) * len(traffics)
	if calls != n || high != n {
		t.Errorf("progress fired %d times up to %d, want %d and %d", calls, high, n, n)
	}
	if got := e.OptimizeCalls(); got != 4 {
		t.Errorf("optimizer ran %d times, want 4 (three distinct points + the baseline)", got)
	}
}

// TestCharacterizeAllReportsLowestIndexError pins CharacterizeAll's error
// rule: with several failing points, the one at the lowest input index
// fails the call, serially and on the pool. C shares A's search family
// (only its temperature differs), so a family-grouped dispatch would walk
// it before B.
func TestCharacterizeAllReportsLowestIndexError(t *testing.T) {
	a := SRAMAt(350)
	b := EDRAMAt(77)
	b.Dies = 3 // not a power of two
	c := SRAMAt(350)
	c.Temperature = 500 // above the modeled range
	_, wantErr := New().CharacterizeContext(context.Background(), b)
	if wantErr == nil {
		t.Fatal("point B characterized; the test needs it invalid")
	}
	if _, cErr := New().CharacterizeContext(context.Background(), c); cErr == nil || cErr.Error() == wantErr.Error() {
		t.Fatalf("point C err = %v; the test needs it invalid with an error distinct from B's", cErr)
	}
	for _, workers := range []int{1, 4} {
		e := New()
		e.Workers = workers
		_, err := e.CharacterizeAll(context.Background(), []DesignPoint{a, b, c})
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("workers=%d: err = %v, want B's error %v", workers, err, wantErr)
		}
	}
}
