package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"coldtall/internal/trace"
)

// HierarchyStats is a snapshot of everything a replay counted: per-level
// cache statistics plus the traffic that left the hierarchy.
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

// Replayer streams a trace through one Hierarchy in batches, with
// cancellation, chunked progress and an optional per-access observer.
type Replayer struct {
	h       *Hierarchy
	observe func(trace.Access)
}

// NewReplayer builds a replayer over a fresh hierarchy.
func NewReplayer(cfg HierarchyConfig) (*Replayer, error) {
	h, err := NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	return &Replayer{h: h}, nil
}

// NewSharded builds a Replayer. It accepts shards 0 or 1 and rejects any
// other count; workers is ignored.
//
// Deprecated: use NewReplayer. NewSharded is kept only for perfbench,
// until a later benchmark change moves it to NewReplayer.
func NewSharded(cfg HierarchyConfig, shards, workers int) (*Replayer, error) {
	if shards != 0 && shards != 1 {
		return nil, fmt.Errorf("sim: shard count %d unsupported: replay is serial (0 or 1)", shards)
	}
	return NewReplayer(cfg)
}

// SetObserver attaches a per-access observer that sees the stream in
// order (the locality signatures of internal/signature). Set it before
// the first Replay call; the observer must not retain the access.
func (r *Replayer) SetObserver(obs func(trace.Access)) { r.observe = obs }

// cancelStride bounds how many accesses Replay runs between cancellation
// checks.
const cancelStride = 8192

// Replay applies one batch of accesses. Batches may be any size; calling
// Replay repeatedly over consecutive chunks of a stream is equivalent to
// one call over the whole stream, which is what lets callers checkpoint
// progress between chunks. The observer sees the whole batch in a pass of
// its own before the hierarchy replays it: one loop doing both cost 15%
// more CPU per ingested upload, likely because the observer's tables and
// the cache arrays then evict each other. On error (cancellation) the
// replayer's state is partial and must be discarded.
func (r *Replayer) Replay(ctx context.Context, batch []trace.Access) error {
	if r.observe != nil {
		for _, a := range batch {
			r.observe(a)
		}
	}
	for off, a := range batch {
		if off%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r.h.Access(a)
	}
	return nil
}

// ReplayReader streams an entire trace.Reader through the replayer in
// chunks of chunk accesses (<= 0 selects 64Ki), invoking progress with
// the cumulative access count after every chunk. It returns the total
// number of accesses replayed.
func (r *Replayer) ReplayReader(ctx context.Context, tr trace.Reader, chunk int, progress func(done uint64)) (uint64, error) {
	if chunk <= 0 {
		chunk = 1 << 16
	}
	buf := make([]trace.Access, 0, chunk)
	var total uint64
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := r.Replay(ctx, buf); err != nil {
			return err
		}
		total += uint64(len(buf))
		buf = buf[:0]
		if progress != nil {
			progress(total)
		}
		return nil
	}
	if br, ok := tr.(trace.BlockReader); ok {
		// Binary streams decode block-wise: whole blocks append in one
		// copy, and every flush lands on a CRC-framed block boundary, so
		// progress checkpoints correspond exactly to complete blocks.
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
			a, err := tr.Next()
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

// Snapshot captures the hierarchy's counters; Accesses is the number of
// accesses replayed so far.
func (r *Replayer) Snapshot() HierarchyStats { return r.h.Snapshot() }
