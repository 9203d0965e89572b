package cache

import (
	"context"
	"sync"
	"testing"
)

// mapTier is an in-memory Tier stand-in for the disk store.
type mapTier struct {
	mu     sync.Mutex
	m      map[string][]byte
	loads  int
	stores int
}

func newMapTier() *mapTier { return &mapTier{m: make(map[string][]byte)} }

func (t *mapTier) Load(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loads++
	v, ok := t.m[key]
	return v, ok
}

func (t *mapTier) Store(key string, v []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stores++
	t.m[key] = v
}

// TestTierWriteThrough: Add lands in both levels; a fresh cache over the
// same tier serves the entry (the restart story in miniature).
func TestTierWriteThrough(t *testing.T) {
	tier := newMapTier()
	c, err := New[[]byte](64)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTier(tier)
	c.Add("k", []byte("v"))
	if tier.stores != 1 {
		t.Errorf("tier stores = %d, want 1", tier.stores)
	}
	// A second cache (a restarted process) misses its LRU but hits the
	// tier, promoting the entry.
	c2, err := New[[]byte](64)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetTier(tier)
	v, ok := c2.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("tier fallthrough Get = %q, %v", v, ok)
	}
	st := c2.Stats()
	if st.Hits != 1 || st.TierHits != 1 {
		t.Errorf("stats after tier hit = %+v", st)
	}
	// Promotion: the next Get must be an LRU hit, not another tier read.
	loadsBefore := tier.loads
	if _, ok := c2.Get("k"); !ok {
		t.Fatal("promoted entry missing")
	}
	if tier.loads != loadsBefore {
		t.Errorf("promoted entry still read the tier (%d -> %d loads)", loadsBefore, tier.loads)
	}
	// A promotion must not echo the entry back into the tier it was just
	// read from.
	if tier.stores != 1 {
		t.Errorf("tier stores = %d after a promotion, want 1", tier.stores)
	}
}

// TestTierBackstopsEviction: an entry evicted from the LRU is still served
// through the tier — bounded memory, unbounded (disk-backed) history.
func TestTierBackstopsEviction(t *testing.T) {
	tier := newMapTier()
	c, err := New[[]byte](16) // one entry per shard: tiny LRU, heavy eviction
	if err != nil {
		t.Fatal(err)
	}
	c.SetTier(tier)
	evicted := 0
	c.SetOnEvict(func(n int) { evicted += n })
	for i := 0; i < 64; i++ {
		c.Add(string(rune('a'+i%26))+string(rune('0'+i/26)), []byte{byte(i)})
	}
	if evicted == 0 {
		t.Fatal("64 adds into a 16-entry LRU should evict")
	}
	if got := c.Stats().Evictions; int(got) != evicted {
		t.Errorf("OnEvict total %d != Stats.Evictions %d", evicted, got)
	}
	// Every written key is still reachable through the tier.
	for i := 0; i < 64; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if v, ok := c.Get(key); !ok || v[0] != byte(i) {
			t.Fatalf("key %q lost after eviction: %v %v", key, v, ok)
		}
	}
}

// TestDoConsultsTier: the compute path treats a tier hit as a cache hit —
// no recomputation after a restart.
func TestDoConsultsTier(t *testing.T) {
	tier := newMapTier()
	tier.Store("k", []byte("stored"))
	c, err := New[[]byte](64)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTier(tier)
	computes := 0
	v, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		computes++
		return []byte("computed"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computes != 0 || !hit || string(v) != "stored" {
		t.Errorf("Do = %q, hit=%v, computes=%d; want stored value without compute", v, hit, computes)
	}
}

// TestDoReadsTierOncePerMiss: a computed miss reads the tier exactly once
// (the re-check under the flight looks at the LRU shard only), writes the
// computed value through once, and a repeat is a pure LRU hit.
func TestDoReadsTierOncePerMiss(t *testing.T) {
	tier := newMapTier()
	c, err := New[[]byte](64)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTier(tier)
	for i := 0; i < 2; i++ {
		v, _, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("computed"), nil })
		if err != nil || string(v) != "computed" {
			t.Fatalf("Do #%d = %q, %v", i, v, err)
		}
	}
	if tier.loads != 1 || tier.stores != 1 {
		t.Errorf("tier loads/stores = %d/%d, want 1/1", tier.loads, tier.stores)
	}
}
