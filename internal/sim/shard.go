package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"coldtall/internal/parallel"
	"coldtall/internal/trace"
)

// HierarchyStats is a mergeable snapshot of everything a replay counted:
// per-level cache statistics plus the traffic that left the hierarchy.
// Merging is pure uint64 summation, so merged shard snapshots are
// bit-identical to a serial replay's counters no matter how the scheduler
// interleaved the shards.
type HierarchyStats struct {
	// Names labels Levels (parallel slices, L1D first).
	Names []string `json:"names"`
	// Levels holds the per-level counters.
	Levels []Stats `json:"levels"`
	// MemReads and MemWrites count traffic that left the hierarchy.
	MemReads  uint64 `json:"mem_reads"`
	MemWrites uint64 `json:"mem_writes"`
	// Prefetches counts prefetch fills issued.
	Prefetches uint64 `json:"prefetches"`
	// Accesses counts demand accesses replayed.
	Accesses uint64 `json:"accesses"`
}

// LLC returns the last level's counters.
func (s HierarchyStats) LLC() Stats {
	if len(s.Levels) == 0 {
		return Stats{}
	}
	return s.Levels[len(s.Levels)-1]
}

// Add accumulates another snapshot of the same hierarchy shape.
func (s *HierarchyStats) Add(o HierarchyStats) {
	if len(s.Levels) == 0 {
		s.Names = append([]string(nil), o.Names...)
		s.Levels = make([]Stats, len(o.Levels))
	}
	for i, l := range o.Levels {
		s.Levels[i].Reads += l.Reads
		s.Levels[i].Writes += l.Writes
		s.Levels[i].ReadMisses += l.ReadMisses
		s.Levels[i].WriteMisses += l.WriteMisses
		s.Levels[i].Writebacks += l.Writebacks
	}
	s.MemReads += o.MemReads
	s.MemWrites += o.MemWrites
	s.Prefetches += o.Prefetches
	s.Accesses += o.Accesses
}

// Sub returns the element-wise difference s - o (the counters accumulated
// after the snapshot o was taken) — how the warmup window is excluded.
func (s HierarchyStats) Sub(o HierarchyStats) HierarchyStats {
	d := HierarchyStats{
		Names:      append([]string(nil), s.Names...),
		Levels:     make([]Stats, len(s.Levels)),
		MemReads:   s.MemReads - o.MemReads,
		MemWrites:  s.MemWrites - o.MemWrites,
		Prefetches: s.Prefetches - o.Prefetches,
		Accesses:   s.Accesses - o.Accesses,
	}
	for i := range s.Levels {
		d.Levels[i] = Stats{
			Reads:       s.Levels[i].Reads - o.Levels[i].Reads,
			Writes:      s.Levels[i].Writes - o.Levels[i].Writes,
			ReadMisses:  s.Levels[i].ReadMisses - o.Levels[i].ReadMisses,
			WriteMisses: s.Levels[i].WriteMisses - o.Levels[i].WriteMisses,
			Writebacks:  s.Levels[i].Writebacks - o.Levels[i].Writebacks,
		}
	}
	return d
}

// MaxShards returns the largest legal shard count for a hierarchy: the
// smallest per-level set count (after the shared-LLC capacity split),
// which for the Table I hierarchy is the L1D's 64 sets.
func MaxShards(cfg HierarchyConfig) int {
	min := 0
	for i, lc := range cfg.Levels {
		if i == len(cfg.Levels)-1 && cfg.SharedCopies > 1 {
			lc.SizeBytes /= cfg.SharedCopies
		}
		sets := lc.Sets()
		if min == 0 || sets < min {
			min = sets
		}
	}
	return min
}

// Sharded replays a trace through per-set-bank shards simulated in
// parallel. The address space is striped by the low bits of the block
// number — bits that form the low set-index bits at every cache level, so
// each shard's accesses (including its victim writebacks, whose
// reconstructed addresses keep those bits) touch set banks no other shard
// can reach. Each shard owns a full private Hierarchy; since LRU order
// only ever compares lines within one set, per-shard replay is exactly
// serial replay restricted to that bank, and summed snapshots are
// bit-identical to a serial run over the same stream.
//
// NewSharded(cfg, 1, 1) is the serial reference: one shard, one worker,
// byte-for-byte the plain Hierarchy semantics.
type Sharded struct {
	cfg      HierarchyConfig
	shards   []*Hierarchy
	queues   [][]trace.Access
	workers  int
	shift    uint
	mask     uint64
	accesses uint64
	observe  func(trace.Access)
}

// AutoShards picks a shard count for a worker pool: 1 (the serial engine,
// no partition/merge tax) when the effective pool is a single worker, and
// otherwise the smallest power of two covering the pool, capped at
// MaxShards(cfg) and rounded down to a power of two. Shard count never
// changes results — merged snapshots are bit-identical to serial replay —
// so this is purely a throughput policy: on one vCPU the sharded engine
// used to pay the partition/merge tax for nothing (the EXPERIMENTS.md
// one-core regression); auto-selection degrades it to serial exactly as
// the PR 1 worker pool does.
func AutoShards(cfg HierarchyConfig, workers int) int {
	w := parallel.Workers(workers)
	if w <= 1 {
		return 1
	}
	shards := 1
	for shards < w {
		shards <<= 1
	}
	max := MaxShards(cfg)
	for shards > max && shards > 1 {
		shards >>= 1
	}
	return shards
}

// NewSharded builds the sharded replayer. shards must be a power of two
// not exceeding MaxShards(cfg), or <= 0 to auto-select via AutoShards
// (serial when the worker pool is a single worker); workers follows
// parallel.Workers semantics (0 means one per CPU). NextLinePrefetch is
// rejected: a next-line prefetch crosses the shard stripe, breaking bank
// isolation.
func NewSharded(cfg HierarchyConfig, shards, workers int) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = AutoShards(cfg, workers)
	}
	if cfg.NextLinePrefetch {
		return nil, fmt.Errorf("sim: sharded replay is incompatible with next-line prefetch (prefetches cross shard banks)")
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("sim: shard count %d must be a power of two >= 1", shards)
	}
	if max := MaxShards(cfg); shards > max {
		return nil, fmt.Errorf("sim: shard count %d exceeds the smallest level's %d sets", shards, max)
	}
	block := cfg.Levels[0].BlockBytes
	for _, lc := range cfg.Levels[1:] {
		if lc.BlockBytes != block {
			return nil, fmt.Errorf("sim: sharded replay needs a uniform block size (%s has %d, want %d)", lc.Name, lc.BlockBytes, block)
		}
	}
	s := &Sharded{
		cfg:     cfg,
		shards:  make([]*Hierarchy, shards),
		queues:  make([][]trace.Access, shards),
		workers: parallel.Workers(workers),
		shift:   uint(bits.TrailingZeros(uint(block))),
		mask:    uint64(shards - 1),
	}
	for i := range s.shards {
		h, err := NewHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = h
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// SetObserver attaches a per-access observer invoked from Replay's serial
// partition phase (with one shard, from its in-place replay loop) — which
// sees the stream in global order at any shard count, so observer-derived
// summaries (the locality signatures of internal/signature) are
// deterministic across shard counts. Set it before the first Replay call;
// the observer must not retain the access.
func (s *Sharded) SetObserver(obs func(trace.Access)) { s.observe = obs }

// cancelStride bounds how many accesses a shard replays between
// cancellation checks.
const cancelStride = 8192

// Replay applies one batch of accesses. Batches may be any size; calling
// Replay repeatedly over consecutive chunks of a stream is equivalent to
// one call over the whole stream, which is what lets callers checkpoint
// progress between chunks. On error (cancellation) the replayer's state
// is partial and must be discarded.
func (s *Sharded) Replay(ctx context.Context, batch []trace.Access) error {
	var err error
	if len(s.shards) == 1 {
		// The serial engine replays the batch in place: no queue copy and
		// no pool dispatch, the observer fed in the same pass.
		err = replay(ctx, s.shards[0], batch, s.observe)
	} else {
		for i := range s.queues {
			s.queues[i] = s.queues[i][:0]
		}
		for _, a := range batch {
			if s.observe != nil {
				s.observe(a)
			}
			q := (a.Addr >> s.shift) & s.mask
			s.queues[q] = append(s.queues[q], a)
		}
		err = parallel.ForEachContext(ctx, len(s.shards), s.workers, func(i int) error {
			return replay(ctx, s.shards[i], s.queues[i], nil)
		})
	}
	if err != nil {
		return err
	}
	s.accesses += uint64(len(batch))
	return nil
}

// replay runs accesses through h in order, handing each to observe (when
// set) first and checking ctx every cancelStride accesses.
func replay(ctx context.Context, h *Hierarchy, accesses []trace.Access, observe func(trace.Access)) error {
	for off, a := range accesses {
		if off%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if observe != nil {
			observe(a)
		}
		h.Access(a)
	}
	return nil
}

// ReplayReader streams an entire trace.Reader through the engine in
// chunks of chunk accesses (<= 0 selects a default sized to keep all
// workers busy), invoking progress with the cumulative access count after
// every chunk. It returns the total number of accesses replayed.
func (s *Sharded) ReplayReader(ctx context.Context, r trace.Reader, chunk int, progress func(done uint64)) (uint64, error) {
	if chunk <= 0 {
		chunk = 1 << 16
	}
	buf := make([]trace.Access, 0, chunk)
	var total uint64
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := s.Replay(ctx, buf); err != nil {
			return err
		}
		total += uint64(len(buf))
		buf = buf[:0]
		if progress != nil {
			progress(total)
		}
		return nil
	}
	if br, ok := r.(trace.BlockReader); ok {
		// Binary streams decode block-wise: whole blocks append in one
		// copy, and every flush lands on a CRC-framed block boundary, so
		// the progress checkpoints the job layer records correspond
		// exactly to complete blocks.
		for {
			block, err := br.ReadBlock()
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return total, err
			}
			buf = append(buf, block...)
			if len(buf) >= chunk {
				if err := flush(); err != nil {
					return total, err
				}
			}
		}
	} else {
		for {
			a, err := r.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return total, err
			}
			buf = append(buf, a)
			if len(buf) == chunk {
				if err := flush(); err != nil {
					return total, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

// Snapshot merges the per-shard counters. Because merging is summation,
// the result is bit-identical to a serial replay of the same stream.
func (s *Sharded) Snapshot() HierarchyStats {
	var out HierarchyStats
	for _, h := range s.shards {
		out.Add(h.Snapshot())
	}
	out.Accesses = s.accesses
	return out
}
