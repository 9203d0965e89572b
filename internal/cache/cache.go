// Package cache provides the repository's one keyed cache: a sharded LRU
// layered over the singleflight group, with an optional persistence tier.
// The LRU makes repeated lookups O(1) with bounded memory; the flight makes
// N concurrent identical misses cost exactly one computation (the
// cache-stampede guard). The server's response bodies (memory only), the
// explorer's array characterizations (the one cache with a tier: the
// store's char| namespace) and the process-wide memos (wire resistivity
// per temperature, the built-in measurement window per workload profile)
// all go through it.
//
// Keys are caller-canonicalized strings — the server canonicalizes request
// JSON into a design-point key before lookup, so two requests that differ
// only in field order or defaulted fields share an entry.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"coldtall/internal/parallel"
)

// defaultShards is the shard count: enough to keep lock contention off the
// request path at realistic core counts, cheap enough to be irrelevant at
// small capacities.
const defaultShards = 16

// entry is one LRU element.
type entry[V any] struct {
	key string
	val V
}

// shard is an independently locked LRU segment.
type shard[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

func (s *shard[V]) get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts or refreshes key and reports how many entries were evicted.
func (s *shard[V]) add(key string, v V) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*entry[V]).val = v
		s.ll.MoveToFront(el)
		return 0
	}
	s.m[key] = s.ll.PushFront(&entry[V]{key: key, val: v})
	evicted := 0
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*entry[V]).key)
		evicted++
	}
	return evicted
}

func (s *shard[V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// deleteFunc removes every entry whose key the predicate accepts and
// returns how many were removed.
func (s *shard[V]) deleteFunc(pred func(key string) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for key, el := range s.m {
		if pred(key) {
			s.ll.Remove(el)
			delete(s.m, key)
			n++
		}
	}
	return n
}

// Stats is a point-in-time view of cache effectiveness.
type Stats struct {
	// Hits and Misses count Get/Do lookups; a lookup served (and
	// promoted) from the persistence tier counts as a hit.
	Hits, Misses int64
	// Evictions counts entries displaced by capacity pressure.
	Evictions int64
	// Len is the current entry count across all shards.
	Len int
}

// Tier is an optional second cache level behind the LRU — in production
// the disk store's char| namespace behind the explorer's characterization
// cache, so the bounded in-memory tier holds the hot set while every
// characterization survives restarts. Load
// reports whether the key exists; Store persists a value and is expected
// to swallow its own errors (persistence is best-effort from the cache's
// point of view — a failed write costs a future recomputation, nothing
// else). Implementations must be safe for concurrent use.
type Tier[V any] interface {
	Load(key string) (V, bool)
	Store(key string, v V)
}

// Cache is a sharded LRU with a singleflight-guarded compute path and an
// optional persistence tier. Safe for concurrent use. Construct with New.
type Cache[V any] struct {
	shards    []*shard[V]
	flight    parallel.Flight[V]
	tier      Tier[V]
	onEvict   func(n int)
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New returns a cache holding at most capacity entries (minimum 1 per
// shard; the capacity is split evenly across 16 shards, so tiny capacities
// are rounded up to the shard count).
func New[V any](capacity int) (*Cache[V], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	perShard := capacity / defaultShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]*shard[V], defaultShards)}
	for i := range c.shards {
		c.shards[i] = &shard[V]{cap: perShard, ll: list.New(), m: make(map[string]*list.Element)}
	}
	return c, nil
}

// MustNew is New for capacities fixed at compile time, such as the
// package-level memos: it panics where New would return an error.
func MustNew[V any](capacity int) *Cache[V] {
	c, err := New[V](capacity)
	if err != nil {
		panic(err)
	}
	return c
}

// FNV-1a 32-bit parameters (the constants of hash/fnv's New32a).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardFor routes a key to its shard by FNV-1a hash, computed inline so a
// lookup allocates neither a hasher nor a byte copy of the key.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return c.shards[h%uint32(len(c.shards))]
}

// SetTier attaches a persistence tier: LRU misses fall through to it (a
// tier hit is promoted into the LRU), and every Add writes through to it,
// so an entry later evicted from the LRU is still one tier read away
// rather than a recomputation. Set it before the cache takes traffic; the
// field is not synchronized against concurrent lookups.
func (c *Cache[V]) SetTier(t Tier[V]) { c.tier = t }

// SetOnEvict registers a hook called with the number of entries displaced
// whenever an insert evicts under capacity pressure (the serving layer
// feeds an eviction counter metric from it). The hook runs outside the
// shard lock. Set it before the cache takes traffic.
func (c *Cache[V]) SetOnEvict(fn func(n int)) { c.onEvict = fn }

// lookup is the two-level read path: the LRU shard first, then the
// persistence tier with promotion. No stats are counted here — Get and Do
// attribute hits and misses at their own level.
func (c *Cache[V]) lookup(key string) (V, bool) {
	if v, ok := c.shardFor(key).get(key); ok {
		return v, true
	}
	if c.tier != nil {
		if v, ok := c.tier.Load(key); ok {
			// Promote without writing back through the tier — the value
			// just came from there.
			c.seed(key, v)
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Get returns the cached value for key, counting the lookup in the stats.
func (c *Cache[V]) Get(key string) (V, bool) {
	v, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// seed inserts into the LRU only (no tier write-through): tier promotions
// use it, since the value just came from the tier.
func (c *Cache[V]) seed(key string, v V) {
	evicted := c.shardFor(key).add(key, v)
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		if c.onEvict != nil {
			c.onEvict(evicted)
		}
	}
}

// Add inserts key unconditionally, writing through to the persistence
// tier when one is attached (most callers want Do instead).
func (c *Cache[V]) Add(key string, v V) {
	c.seed(key, v)
	if c.tier != nil {
		c.tier.Store(key, v)
	}
}

// DeleteFunc removes every in-memory entry whose key the predicate
// accepts and returns how many were removed. The persistence tier is not
// touched. Used to invalidate all
// cached renderings touching a removed workload, where the full key set
// (sweep keys embed arbitrary benchmark combinations) is not enumerable
// by the caller.
func (c *Cache[V]) DeleteFunc(pred func(key string) bool) int {
	n := 0
	for _, s := range c.shards {
		n += s.deleteFunc(pred)
	}
	return n
}

// Do returns the value for key, computing it with fn on a miss. Concurrent
// callers of the same missing key share one fn call (the stampede guard);
// distinct keys never block each other. A failed fn is not cached — the
// next caller recomputes. The returned flag reports whether the value came
// from the cache (for hit/miss metrics at the caller's layer).
//
// ctx is the caller's: fn should observe the same context. A caller
// sharing another's computation stops waiting when its ctx is done, and
// recomputes with its own fn when the computation it shared was cancelled
// under the other caller's context, or ran out of a deadline that left
// the caller more time (see parallel.Flight.Do).
func (c *Cache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, bool, error) {
	if v, ok := c.lookup(key); ok {
		c.hits.Add(1)
		return v, true, nil
	}
	c.misses.Add(1)
	hit := false
	v, err := c.flight.Do(ctx, key, func() (V, error) {
		// Re-check under the flight: a previous flight for this key may
		// have populated the cache between our miss and winning the
		// flight. Only the shard needs a second look — every in-process
		// fill lands there before the tier (Add seeds, then stores) — so
		// a computed miss reads the tier once.
		if v, ok := c.shardFor(key).get(key); ok {
			hit = true
			return v, nil
		}
		v, err := fn()
		if err != nil {
			var zero V
			return zero, err
		}
		c.Add(key, v)
		return v, nil
	})
	if err != nil {
		var zero V
		return zero, false, err
	}
	return v, hit, nil
}

// Stats returns a point-in-time snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       n,
	}
}
