// Package sim implements a trace-driven cache-hierarchy simulator that
// stands in for the Sniper runs of the paper: it replays synthetic
// per-benchmark address streams (internal/trace) through the Table I memory
// hierarchy (32 KiB L1D, 512 KiB L2, shared 16 MiB 16-way LLC) and reports
// per-level read/write/miss counts, from which per-benchmark LLC traffic
// rates (reads/s and writes/s under continuous operation at 5 GHz) are
// extrapolated exactly as the paper does with Sniper statistics.
package sim

import (
	"fmt"
	"math/bits"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	// Name labels the level in stats output ("L1D", "L2", "LLC").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// BlockBytes is the line size.
	BlockBytes int
	// Ways is the set associativity.
	Ways int
}

// Validate reports structural errors.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("sim: %s: sizes and ways must be positive", c.Name)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("sim: %s: block size must be a power of two", c.Name)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Ways)
	if sets <= 0 {
		return fmt.Errorf("sim: %s: capacity too small for %d ways", c.Name, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("sim: %s: set count %d must be a power of two", c.Name, sets)
	}
	if c.BlockBytes == 1 && sets == 1 {
		// The tag would be the whole 64-bit address, leaving no bit for
		// the dirty flag a Cache entry packs beside it.
		return fmt.Errorf("sim: %s: one set of one-byte blocks leaves no tag bit for the dirty flag", c.Name)
	}
	return nil
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Ways) }

// Stats counts the traffic a cache level observed.
type Stats struct {
	// Reads and Writes are lookups by kind (writebacks from the level
	// above count as Writes).
	Reads, Writes uint64
	// ReadMisses and WriteMisses are the misses among them.
	ReadMisses, WriteMisses uint64
	// Writebacks counts dirty evictions leaving this level.
	Writebacks uint64
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses per lookup (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
//
// Storage is one flat tag array, set-major: set s owns
// tags[s*ways : (s+1)*ways], and each entry is tag<<1 | dirty. A set's
// valid ways are always a prefix of it — fills take the first invalid
// way, and nothing but the tests' Flush invalidates, which empties every
// set at once — so valid[s] counts them.
// The prefix is kept most-recently-used first: a hit moves its entry to
// the front, a fill inserts at the front, and a fill into a full set
// evicts the last entry, which is the least recently used line.
type Cache struct {
	cfg      CacheConfig
	tags     []uint64
	valid    []int32
	ways     int
	setShift uint
	setBits  uint
	setMask  uint64
	stats    Stats
}

// NewCache builds an empty cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, sets*cfg.Ways),
		valid:    make([]int32, sets),
		ways:     cfg.Ways,
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// index splits an address into its set and the clean entry its line
// would hold (tag<<1).
func (c *Cache) index(addr uint64) (set int, key uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> c.setBits << 1
}

// valids returns the set's valid ways, most recently used first.
func (c *Cache) valids(set int) []uint64 {
	base := set * c.ways
	return c.tags[base : base+int(c.valid[set])]
}

// dirtyBit is an entry's dirty flag for an access of the given kind.
func dirtyBit(write bool) uint64 {
	if write {
		return 1
	}
	return 0
}

// find returns the position of key's line among ways, or -1.
func find(ways []uint64, key uint64) int {
	for i, e := range ways {
		if e|1 == key|1 {
			return i
		}
	}
	return -1
}

// Lookup probes for the address; on a hit it updates LRU state and, for
// writes, marks the line dirty. Counters are updated either way.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	set, key := c.index(addr)
	ways := c.valids(set)
	if i := find(ways, key); i >= 0 {
		// Move to front: the ways before i each age by one position.
		e := ways[i] | dirtyBit(write)
		copy(ways[1:i+1], ways[:i])
		ways[0] = e
		return true
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return false
}

// Fill installs the address after a miss (write-allocate). The block must
// be absent — a Lookup of it just missed, or Contains reports false — so a
// set never holds two copies of one line. It returns the evicted victim's
// address and whether that victim was dirty (needing a writeback to the
// level below).
func (c *Cache) Fill(addr uint64, write bool) (victimAddr uint64, wb bool) {
	set, key := c.index(addr)
	base := set * c.ways
	n := int(c.valid[set])
	if n < c.ways {
		c.valid[set]++
		n++
	} else if last := c.tags[base+n-1]; last&1 != 0 {
		wb = true
		victimAddr = (last>>1<<c.setBits | uint64(set)) << c.setShift
		c.stats.Writebacks++
	}
	ways := c.tags[base : base+n]
	copy(ways[1:], ways)
	ways[0] = key | dirtyBit(write)
	return victimAddr, wb
}

// access is Lookup followed, on a miss, by Fill: the one probe per level
// Hierarchy makes for a demand access. Installing before the level below
// is fetched gives the same state as installing after it, since the
// levels below never touch this one.
func (c *Cache) access(addr uint64, write bool) (hit bool, victimAddr uint64, wb bool) {
	if c.Lookup(addr, write) {
		return true, 0, false
	}
	victimAddr, wb = c.Fill(addr, write)
	return false, victimAddr, wb
}

// Contains probes for the address without touching statistics or LRU
// state (used by prefetchers to avoid redundant fills).
func (c *Cache) Contains(addr uint64) bool {
	set, key := c.index(addr)
	return find(c.valids(set), key) >= 0
}
