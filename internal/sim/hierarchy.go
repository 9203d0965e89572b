package sim

import (
	"fmt"

	"coldtall/internal/trace"
)

// HierarchyConfig describes the simulated memory system.
type HierarchyConfig struct {
	// Levels orders the caches from closest to the core (L1D) outward
	// (LLC last).
	Levels []CacheConfig
	// SharedCopies models SPECrate-style rate runs: the last level is
	// shared by this many benchmark copies, so each copy sees
	// 1/SharedCopies of its capacity while total traffic scales by
	// SharedCopies. 1 simulates a single copy with the full LLC.
	SharedCopies int
	// NextLinePrefetch enables a simple next-line prefetcher at the L2:
	// every demand access also pulls the following block into the L2 if
	// absent, converting stream misses into hits at the cost of extra
	// LLC traffic for irregular patterns.
	NextLinePrefetch bool
}

// TableIConfig returns the paper's CPU memory hierarchy (Table I): 32 KiB
// L1D, 512 KiB L2, 16 MiB 16-way shared LLC, 64 B blocks, 8 cores running
// rate copies.
func TableIConfig() HierarchyConfig {
	return HierarchyConfig{
		Levels: []CacheConfig{
			{Name: "L1D", SizeBytes: 32 << 10, BlockBytes: 64, Ways: 8},
			{Name: "L2", SizeBytes: 512 << 10, BlockBytes: 64, Ways: 8},
			{Name: "LLC", SizeBytes: 16 << 20, BlockBytes: 64, Ways: 16},
		},
		SharedCopies: 8,
	}
}

// Validate reports configuration errors.
func (h HierarchyConfig) Validate() error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("sim: hierarchy needs at least one level")
	}
	if h.SharedCopies < 1 {
		return fmt.Errorf("sim: shared copies must be >= 1, got %d", h.SharedCopies)
	}
	for i, l := range h.Levels {
		if err := l.Validate(); err != nil {
			return err
		}
		if i > 0 && l.SizeBytes < h.Levels[i-1].SizeBytes {
			return fmt.Errorf("sim: level %s smaller than the level above it", l.Name)
		}
	}
	if h.Levels[len(h.Levels)-1].SizeBytes/(h.SharedCopies) <
		h.Levels[len(h.Levels)-1].BlockBytes*h.Levels[len(h.Levels)-1].Ways {
		return fmt.Errorf("sim: LLC share per copy too small for %d copies", h.SharedCopies)
	}
	return nil
}

// Hierarchy is an instantiated memory system for one benchmark copy. The
// shared last level is modeled by shrinking its per-copy capacity.
type Hierarchy struct {
	cfg        HierarchyConfig
	levels     []*Cache
	memReads   uint64
	memWrites  uint64
	prefetches uint64
}

// NewHierarchy builds the simulator.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	levels := make([]*Cache, len(cfg.Levels))
	for i, lc := range cfg.Levels {
		if i == len(cfg.Levels)-1 && cfg.SharedCopies > 1 {
			// Per-copy slice of the shared LLC: shrink capacity,
			// keep associativity and block size.
			lc.SizeBytes /= cfg.SharedCopies
		}
		c, err := NewCache(lc)
		if err != nil {
			return nil, err
		}
		levels[i] = c
	}
	return &Hierarchy{cfg: cfg, levels: levels}, nil
}

// Access replays one reference through the hierarchy.
func (h *Hierarchy) Access(a trace.Access) {
	h.accessLevel(0, a.Addr, a.Write)
	if h.cfg.NextLinePrefetch && len(h.levels) > 1 {
		next := a.Addr + uint64(h.levels[1].Config().BlockBytes)
		if !h.levels[1].Contains(next) {
			// Fetch from below and install into the L2 directly: the
			// prefetch is not a demand access, so it must not perturb
			// the L2's demand hit/miss statistics.
			h.prefetches++
			h.accessLevel(2, next, false)
			if victim, wb := h.levels[1].Fill(next, false); wb {
				h.accessLevel(2, victim, true)
			}
		}
	}
}

// accessLevel performs a demand access at level i, recursing outward on a
// miss (fetch) and propagating dirty evictions (writeback) as write traffic
// to the level below.
func (h *Hierarchy) accessLevel(i int, addr uint64, write bool) {
	if i == len(h.levels) {
		if write {
			h.memWrites++
		} else {
			h.memReads++
		}
		return
	}
	hit, victim, wb := h.levels[i].access(addr, write)
	if hit {
		return
	}
	// Miss: the block is already installed here; fetch it from outward
	// (reads the next level), then push any dirty victim outward.
	h.accessLevel(i+1, addr, false)
	if wb {
		h.accessLevel(i+1, victim, true)
	}
}

// Snapshot captures every counter as a HierarchyStats. Accesses
// is the demand-access count, which equals the L1's total lookups (only
// demand traffic reaches level 0).
func (h *Hierarchy) Snapshot() HierarchyStats {
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
