package explorer

import (
	"context"
	"sync"
	"testing"

	"coldtall/internal/array"
	"coldtall/internal/cryo"
	"coldtall/internal/workload"
)

// fakeStore is an in-memory cache.Tier double for the persistence hook.
type fakeStore struct {
	mu    sync.Mutex
	m     map[string]array.Result
	loads int
	saves int
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string]array.Result)} }

func (f *fakeStore) Load(key string) (array.Result, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	r, ok := f.m[key]
	return r, ok
}

func (f *fakeStore) Store(key string, r array.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	f.m[key] = r
}

// TestPersistenceWriteThrough: a characterization miss lands in the store,
// and a fresh explorer over the same store re-serves it without running
// the optimizer — the restart story at the explorer level.
func TestPersistenceWriteThrough(t *testing.T) {
	st := newFakeStore()
	e := New()
	e.SetPersistence(st)
	p := Baseline()
	want, err := e.CharacterizeContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if st.saves != 1 {
		t.Errorf("store saves = %d, want 1", st.saves)
	}
	if got := e.OptimizeCalls(); got != 1 {
		t.Fatalf("OptimizeCalls = %d, want 1", got)
	}

	// "Restart": a brand-new explorer with a cold in-memory cache.
	e2 := New()
	e2.SetPersistence(st)
	got, err := e2.CharacterizeContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("persisted characterization diverged from the original")
	}
	if n := e2.OptimizeCalls(); n != 0 {
		t.Errorf("restarted explorer re-ran Optimize %d times; want the store to serve it", n)
	}
	// The persisted hit is promoted: a second call is a pure cache hit.
	loadsBefore := st.loads
	if _, err := e2.CharacterizeContext(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if st.loads != loadsBefore {
		t.Errorf("promoted characterization still read the store (%d -> %d loads)", loadsBefore, st.loads)
	}
}

// TestWithCoolingSharedCache: explorers derived via WithCoolingShared share
// one characterization memory — the fix for the cooling-sweep cache bypass,
// where every cooler class paid for its own private optimizations.
func TestWithCoolingSharedCache(t *testing.T) {
	e := New()
	p := EDRAMAt(77)
	if _, err := e.CharacterizeContext(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	for _, cls := range cryo.Classes() {
		derived, err := e.WithCoolingShared(cryo.Cooling{Class: cls, ThresholdK: 200})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := derived.CharacterizeContext(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.OptimizeCalls(); got != 1 {
		t.Errorf("Optimize ran %d times across %d cooling environments, want 1 (characterization is cooling-independent)",
			got, 1+len(cryo.Classes()))
	}
}

// TestWithCoolingSharedEvaluatesDifferently: sharing the characterization
// cache must not share the cooling model — the same point under different
// cooler classes still reports different total power.
func TestWithCoolingSharedEvaluatesDifferently(t *testing.T) {
	e := New()
	tr, err := workload.StaticTrafficFor(ReferenceBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.EvaluateContext(context.Background(), EDRAMAt(77), tr)
	if err != nil {
		t.Fatal(err)
	}
	classes := cryo.Classes()
	// The last class (10 W) has a different overhead than the 100 kW default.
	derived, err := e.WithCoolingShared(cryo.Cooling{Class: classes[len(classes)-1], ThresholdK: 200})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := derived.EvaluateContext(context.Background(), EDRAMAt(77), tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Array != base.Array {
		t.Error("shared-cache explorers disagreed on the characterization")
	}
	if ev.TotalPower == base.TotalPower {
		t.Error("different cooler classes reported identical total power; cooling model appears shared")
	}
}

// TestCharacterizationCacheBounded: the characterization cache never holds
// more than charCapacity points, and a point it evicted comes back from the
// persistence tier rather than from the optimizer. The tier is filled
// before the explorer reads it, so the optimizer never runs.
func TestCharacterizationCacheBounded(t *testing.T) {
	st := newFakeStore()
	const n = charCapacity + 100
	pts := make([]DesignPoint, n)
	for i := range pts {
		p := Baseline()
		p.Temperature = 77 + float64(i)/128 // distinct fractional temperatures
		pts[i] = p
		st.m[p.Key()] = array.Result{ReadLatency: float64(i)}
	}
	e := New()
	e.SetPersistence(st)
	for _, p := range pts {
		if _, err := e.CharacterizeContext(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.chars.cache.Stats().Len; got > charCapacity {
		t.Fatalf("cache holds %d characterizations after %d distinct points, past its bound %d", got, n, charCapacity)
	}
	if st.saves != 0 {
		t.Errorf("tier saves = %d, want 0 (every point came from the tier)", st.saves)
	}
	// Promotion evicts oldest-first, so the earliest points include evicted
	// ones; each must come back from the tier with its stored value.
	evicted := 0
	for i, p := range pts[:200] {
		loadsBefore := st.loads
		r, err := e.CharacterizeContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if r.ReadLatency != float64(i) {
			t.Fatalf("point %d served %v, want its stored result", i, r.ReadLatency)
		}
		if st.loads > loadsBefore {
			evicted++
		}
	}
	if evicted == 0 {
		t.Error("no early point was evicted from the cache; the bound is not exercised")
	}
	if calls := e.OptimizeCalls(); calls != 0 {
		t.Errorf("OptimizeCalls = %d, want 0 (evicted points come back from the tier)", calls)
	}
}
