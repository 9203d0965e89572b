package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"coldtall/internal/trace"
)

// The timestamp LRU kernel the recency-ordered Cache replaced, kept
// verbatim as the test oracle: every set is a slice of lines carrying an
// LRU stamp from a per-cache clock, and Fill evicts the first invalid way
// or else the argmin stamp. The differential tests at the end of this
// file drive it and Cache through the same operations and require
// identical results after every one.

// refLine is one cache line's metadata.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// refCache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type refCache struct {
	cfg      CacheConfig
	sets     [][]refLine
	setShift uint
	setMask  uint64
	clock    uint64
	stats    Stats
}

// newRefCache builds an empty cache.
func newRefCache(cfg CacheConfig) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]refLine, cfg.Sets())
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:  uint64(cfg.Sets() - 1),
	}, nil
}

// Config returns the cache's configuration.
func (c *refCache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the counters.
func (c *refCache) Stats() Stats { return c.stats }

// index splits an address into set index and tag.
func (c *refCache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> bits.TrailingZeros64(c.setMask+1)
}

// Lookup probes for the address; on a hit it updates LRU state and, for
// writes, marks the line dirty. Counters are updated either way.
func (c *refCache) Lookup(addr uint64, write bool) bool {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	set, tag := c.index(addr)
	c.clock++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			if write {
				l.dirty = true
			}
			return true
		}
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return false
}

// Fill installs the address after a miss (write-allocate). It returns the
// evicted victim's address and whether that victim was dirty (needing a
// writeback to the level below).
func (c *refCache) Fill(addr uint64, write bool) (victimAddr uint64, wb bool) {
	set, tag := c.index(addr)
	c.clock++
	victim := 0
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if !l.valid {
			victim = i
			break
		}
		if l.used < c.sets[set][victim].used {
			victim = i
		}
	}
	v := &c.sets[set][victim]
	if v.valid && v.dirty {
		wb = true
		victimAddr = ((v.tag << bits.TrailingZeros64(c.setMask+1)) | uint64(set)) << c.setShift
		c.stats.Writebacks++
	}
	*v = refLine{tag: tag, valid: true, dirty: write, used: c.clock}
	return victimAddr, wb
}

// Contains probes for the address without touching statistics or LRU
// state (used by prefetchers to avoid redundant fills).
func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning the number of dirty lines that
// would have been written back. Production never flushes; the comparison
// against the oracle reads the resident dirty bits through it.
func (c *Cache) Flush() uint64 {
	var dirty uint64
	for s := range c.valid {
		for _, e := range c.valids(s) {
			dirty += e & 1
		}
		c.valid[s] = 0
	}
	return dirty
}

// Flush is Cache.Flush's oracle.
func (c *refCache) Flush() uint64 {
	var dirty uint64
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].dirty {
				dirty++
			}
			c.sets[s][i] = refLine{}
		}
	}
	return dirty
}

// refHierarchy is the hierarchy walk over the oracle caches: a demand
// access looks up level i and, on a miss, fetches from level i+1 before
// filling level i and writing its dirty victim back outward.
type refHierarchy struct {
	cfg        HierarchyConfig
	levels     []*refCache
	memReads   uint64
	memWrites  uint64
	prefetches uint64
}

func newRefHierarchy(cfg HierarchyConfig) (*refHierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	levels := make([]*refCache, len(cfg.Levels))
	for i, lc := range cfg.Levels {
		if i == len(cfg.Levels)-1 && cfg.SharedCopies > 1 {
			lc.SizeBytes /= cfg.SharedCopies
		}
		c, err := newRefCache(lc)
		if err != nil {
			return nil, err
		}
		levels[i] = c
	}
	return &refHierarchy{cfg: cfg, levels: levels}, nil
}

func (h *refHierarchy) Access(a trace.Access) {
	h.accessLevel(0, a.Addr, a.Write)
	if h.cfg.NextLinePrefetch && len(h.levels) > 1 {
		next := a.Addr + uint64(h.levels[1].Config().BlockBytes)
		if !h.levels[1].Contains(next) {
			h.prefetches++
			h.accessLevel(2, next, false)
			if victim, wb := h.levels[1].Fill(next, false); wb {
				h.accessLevel(2, victim, true)
			}
		}
	}
}

func (h *refHierarchy) accessLevel(i int, addr uint64, write bool) {
	if i == len(h.levels) {
		if write {
			h.memWrites++
		} else {
			h.memReads++
		}
		return
	}
	c := h.levels[i]
	if c.Lookup(addr, write) {
		return
	}
	h.accessLevel(i+1, addr, false)
	if victim, wb := c.Fill(addr, write); wb {
		h.accessLevel(i+1, victim, true)
	}
}

func (h *refHierarchy) Snapshot() HierarchyStats {
	s := HierarchyStats{
		Names:      make([]string, len(h.levels)),
		Levels:     make([]Stats, len(h.levels)),
		MemReads:   h.memReads,
		MemWrites:  h.memWrites,
		Prefetches: h.prefetches,
	}
	for i, c := range h.levels {
		s.Names[i] = c.Config().Name
		s.Levels[i] = c.Stats()
	}
	s.Accesses = s.Levels[0].Accesses()
	return s
}

// diffCache runs one Cache and one oracle through the operations prog
// encodes, four bytes each: an opcode byte, two bytes of block index into
// a pool twice the cache's capacity, and a byte offset within the block.
// Opcode bit 5 lifts the block into a far tag range, so victim addresses
// are rebuilt from tags with high bits set. It fails on the first
// operation after which a hit flag, victim, writeback flag, dirty count or
// Stats differs.
func diffCache(t *testing.T, cfg CacheConfig, prog []byte) {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := uint64(2 * cfg.Sets() * cfg.Ways)
	block := uint64(cfg.BlockBytes)
	for k := 0; k+3 < len(prog); k += 4 {
		op := prog[k]
		blk := (uint64(prog[k+1])<<8 | uint64(prog[k+2])) % pool
		if op&0x20 != 0 {
			blk += 1 << 40
		}
		addr := blk*block + uint64(prog[k+3])%block
		write := op&0x08 != 0
		var what string // the operation, for failure messages
		switch op & 0x07 {
		case 0, 1, 2, 3: // Lookup, then Fill on a miss unless bit 4 is set
			what = "Lookup"
			hit, refHit := c.Lookup(addr, write), ref.Lookup(addr, write)
			if hit != refHit {
				t.Fatalf("op %d: Lookup(%#x, %v) hit %v, oracle %v", k/4, addr, write, hit, refHit)
			}
			if !hit && op&0x10 == 0 {
				what = "Fill after a miss"
				v, wb := c.Fill(addr, write)
				rv, rwb := ref.Fill(addr, write)
				if v != rv || wb != rwb {
					t.Fatalf("op %d: Fill(%#x, %v) after a miss evicted %#x (wb %v), oracle %#x (wb %v)", k/4, addr, write, v, wb, rv, rwb)
				}
			}
		case 4: // the Hierarchy's probe: Lookup, and Fill on a miss
			what = "access"
			hit, v, wb := c.access(addr, write)
			refHit := ref.Lookup(addr, write)
			var rv uint64
			var rwb bool
			if !refHit {
				rv, rwb = ref.Fill(addr, write)
			}
			if hit != refHit || v != rv || wb != rwb {
				t.Fatalf("op %d: access(%#x, %v) = (%v, %#x, %v), oracle (%v, %#x, %v)", k/4, addr, write, hit, v, wb, refHit, rv, rwb)
			}
		case 5: // Fill with no Lookup first (the prefetcher's path)
			what = "Fill without a Lookup"
			if ref.Contains(addr) {
				break // Fill's precondition: the block is absent
			}
			v, wb := c.Fill(addr, write)
			rv, rwb := ref.Fill(addr, write)
			if v != rv || wb != rwb {
				t.Fatalf("op %d: Fill(%#x, %v) without a Lookup evicted %#x (wb %v), oracle %#x (wb %v)", k/4, addr, write, v, wb, rv, rwb)
			}
		default: // Flush when the whole opcode is 0xff, else Contains
			if op == 0xff {
				what = "Flush"
				if got, want := c.Flush(), ref.Flush(); got != want {
					t.Fatalf("op %d: Flush counted %d dirty lines, oracle %d", k/4, got, want)
				}
				break
			}
			what = "Contains"
			if got, want := c.Contains(addr), ref.Contains(addr); got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, oracle %v", k/4, addr, got, want)
			}
		}
		if got, want := c.Stats(), ref.Stats(); got != want {
			t.Fatalf("op %d: after %s(%#x, %v) stats %+v, oracle %+v", k/4, what, addr, write, got, want)
		}
	}
}

// diffConfigs are the cache shapes the differential tests cover: 1- to
// 16-way, 32 B and 64 B blocks, eight sets.
func diffConfigs() []CacheConfig {
	var cfgs []CacheConfig
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for _, block := range []int{32, 64} {
			cfgs = append(cfgs, CacheConfig{
				Name:       fmt.Sprintf("%dway-%dB", ways, block),
				SizeBytes:  8 * ways * block,
				BlockBytes: block,
				Ways:       ways,
			})
		}
	}
	return cfgs
}

func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range diffConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				prog := make([]byte, 4*20000)
				rand.New(rand.NewSource(seed)).Read(prog)
				diffCache(t, cfg, prog)
			}
		})
	}
}

func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{0, 0, 1, 0, 8, 0, 9, 0, 5, 0, 17, 3, 0xff, 0, 0, 0, 4, 0, 1, 0})
	f.Add(uint8(0), uint8(0), []byte{0x28, 0, 1, 7, 0x25, 0, 3, 0, 0x0c, 0, 5, 0, 6, 0, 1, 0})
	f.Add(uint8(4), uint8(6), []byte{0x18, 1, 0, 0, 4, 1, 0, 0, 0x0d, 2, 0, 0, 7, 1, 0, 0})
	f.Fuzz(func(t *testing.T, waysLog, shape uint8, prog []byte) {
		// 1 to 16 ways, 1 to 8 sets, 32 B or 64 B blocks.
		ways := 1 << (waysLog % 5)
		sets := 1 << (shape % 4)
		block := 32 << (shape >> 2 & 1)
		diffCache(t, CacheConfig{Name: "fuzz", SizeBytes: sets * ways * block, BlockBytes: block, Ways: ways}, prog)
	})
}

func TestHierarchyMatchesReference(t *testing.T) {
	// The stream runs long enough to wrap even the full 16 MiB LLC, so
	// every level evicts dirty lines under both copy counts.
	gens := []struct {
		name string
		n    int
		gen  func() (trace.Generator, error)
	}{
		{"zipf", 60000, func() (trace.Generator, error) {
			return trace.NewZipf(trace.Region{Base: 0, Size: 48 << 20}, 1.2, 0.35, 21)
		}},
		{"stream", 300000, func() (trace.Generator, error) {
			return trace.NewStream(trace.Region{Base: 1 << 30, Size: 24 << 20}, 1, 0.5, 22)
		}},
		{"chase", 60000, func() (trace.Generator, error) {
			return trace.NewPointerChase(trace.Region{Base: 1 << 33, Size: 12 << 20}, 0.3, 23)
		}},
	}
	for _, copies := range []int{1, 8} {
		for _, prefetch := range []bool{false, true} {
			for _, gc := range gens {
				cfg := TableIConfig()
				cfg.SharedCopies = copies
				cfg.NextLinePrefetch = prefetch
				t.Run(fmt.Sprintf("copies=%d/prefetch=%v/%s", copies, prefetch, gc.name), func(t *testing.T) {
					g, err := gc.gen()
					if err != nil {
						t.Fatal(err)
					}
					h, err := NewHierarchy(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newRefHierarchy(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 1; i <= gc.n; i++ {
						a := g.Next()
						h.Access(a)
						ref.Access(a)
						if i%5000 != 0 && i != gc.n {
							continue
						}
						if got, want := h.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
							t.Fatalf("after %d accesses: snapshot %+v, oracle %+v", i, got, want)
						}
					}
					s := h.Snapshot()
					if s.Levels[1].Writebacks == 0 || (gc.name == "stream" && s.LLC().Writebacks == 0) {
						t.Fatalf("replay never evicted a dirty line where it should: %+v", s.Levels)
					}
				})
			}
		}
	}
}

// TestNewHierarchyAllocs pins the flat layout: a Table I hierarchy is a
// handful of allocations (the Hierarchy, its level slice, and per level a
// Cache, its tag array and its valid counts), not one per set.
func TestNewHierarchyAllocs(t *testing.T) {
	cfg := TableIConfig()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewHierarchy(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("NewHierarchy(TableIConfig()) made %.0f allocations, budget 16", allocs)
	}
}
