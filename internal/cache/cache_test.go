package cache

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetAddRoundTrip(t *testing.T) {
	c, err := New[int](64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("empty cache reported a hit")
	}
	c.Add("k", 42)
	v, ok := c.Get("k")
	if !ok || v != 42 {
		t.Errorf("Get = (%d, %v), want (42, true)", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, len 1", st)
	}
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := New[int](n); err == nil {
			t.Errorf("New(%d) should error", n)
		}
	}
}

func TestLRUEvictsOldestWithinShard(t *testing.T) {
	// Capacity 16 = 1 entry per shard: inserting two keys that land in the
	// same shard must evict the older one.
	c, err := New[int](16)
	if err != nil {
		t.Fatal(err)
	}
	// Find two keys in one shard.
	target := c.shardFor("seed")
	keys := []string{"seed"}
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == target {
			keys = append(keys, k)
		}
	}
	c.Add(keys[0], 0)
	c.Add(keys[1], 1)
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest entry survived past shard capacity")
	}
	if v, ok := c.Get(keys[1]); !ok || v != 1 {
		t.Error("newest entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// Recency, not insertion order: touch keys[1], insert keys[2], and the
	// untouched... with cap 1 the touch is moot, so grow the scenario in
	// one shard via a fresh cache with larger per-shard capacity.
	c2, err := New[int](32) // 2 per shard
	if err != nil {
		t.Fatal(err)
	}
	c2.Add(keys[0], 0)
	c2.Add(keys[1], 1)
	c2.Get(keys[0]) // make keys[0] most recent
	c2.Add(keys[2], 2)
	if _, ok := c2.Get(keys[1]); ok {
		t.Error("least-recently-used entry survived")
	}
	if _, ok := c2.Get(keys[0]); !ok {
		t.Error("recently-touched entry was evicted")
	}
}

func TestDoComputesOnceUnderStampede(t *testing.T) {
	c, err := New[string](64)
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	const n = 16
	results := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := c.Do(context.Background(), "key", func() (string, error) {
				computes.Add(1)
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("%d computations for %d concurrent identical requests, want 1", got, n)
	}
	for i, v := range results {
		if v != "value" {
			t.Errorf("caller %d got %q", i, v)
		}
	}
	// A later call is a pure LRU hit.
	_, hit, err := c.Do(context.Background(), "key", func() (string, error) {
		t.Error("cached key recomputed")
		return "", nil
	})
	if err != nil || !hit {
		t.Errorf("repeat Do = (hit=%v, err=%v), want cache hit", hit, err)
	}
}

func TestDoErrorIsNotCached(t *testing.T) {
	c, err := New[int](64)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fn   func() (int, error)
	}{
		{"error", func() (int, error) { return 0, boom }},
		{"panic", func() (int, error) { panic("boom") }},
	} {
		key := "k-" + tc.name
		_, _, err := c.Do(context.Background(), key, tc.fn)
		if err == nil || (tc.name == "error" && !errors.Is(err, boom)) {
			t.Fatalf("%s: err = %v, want the failure reported", tc.name, err)
		}
		if n := c.Stats().Len; n != 0 {
			t.Fatalf("%s: Len = %d after a failed fill, want 0", tc.name, n)
		}
		v, _, err := c.Do(context.Background(), key, func() (int, error) { return 7, nil })
		if err != nil || v != 7 {
			t.Errorf("%s: retry after failure = (%d, %v), want (7, nil)", tc.name, v, err)
		}
		c.Delete(key)
	}
}

func TestDistinctKeysDoNotBlock(t *testing.T) {
	c, err := New[int](64)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Do(context.Background(), "slow", func() (int, error) { <-gate; return 1, nil })
		close(done)
	}()
	// While "slow" is in flight, "fast" must complete immediately.
	v, _, err := c.Do(context.Background(), "fast", func() (int, error) { return 2, nil })
	if err != nil || v != 2 {
		t.Errorf("fast key = (%d, %v), want (2, nil)", v, err)
	}
	close(gate)
	<-done
}

// TestConcurrentMixedUse is the -race workout: gets, adds, and flights on
// overlapping keys from many goroutines.
func TestConcurrentMixedUse(t *testing.T) {
	c, err := New[int](32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%40)
				switch i % 3 {
				case 0:
					c.Get(k)
				case 1:
					c.Add(k, i)
				default:
					c.Do(context.Background(), k, func() (int, error) { return i, nil })
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Len > 32 {
		t.Errorf("len = %d exceeds capacity 32", st.Len)
	}
}

func BenchmarkDoHit(b *testing.B) {
	c, err := New[[]byte](1024)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 4096)
	c.Add("key", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, _ := c.Do(context.Background(), "key", func() ([]byte, error) { return body, nil }); !hit {
			b.Fatal("miss on a warmed key")
		}
	}
}

// TestShardForMatchesFNV pins the inline shard hash to hash/fnv's FNV-1a,
// the routing every earlier build used, and checks a hit allocates
// nothing.
func TestShardForMatchesFNV(t *testing.T) {
	c := MustNew[int](64)
	keys := []string{"", "k", "sram-6t|SRAM|350|1|tsv|0|22nm-hp", "bg|4077000000000000", "\xff\x00multi\u00e9byte"}
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i))
	}
	for _, k := range keys {
		h := fnv.New32a()
		h.Write([]byte(k))
		want := c.shards[h.Sum32()%uint32(len(c.shards))]
		if got := c.shardFor(k); got != want {
			t.Errorf("shardFor(%q) routes to a different shard than FNV-1a", k)
		}
	}
	c.Add("hot", 1)
	if allocs := testing.AllocsPerRun(100, func() { c.Get("hot") }); allocs != 0 {
		t.Errorf("Get hit allocates %.1f times, want 0", allocs)
	}
}
