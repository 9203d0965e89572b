package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"

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

// Replay applies one batch of accesses. Batches may be any size; calling
// Replay repeatedly over consecutive chunks of a stream is equivalent to
// one call over the whole stream, which is what lets callers checkpoint
// progress between chunks. It checks ctx once, before the batch, so a
// cancelled replay has touched nothing. The observer sees the whole batch
// in a pass of its own before the hierarchy replays it: one loop doing
// both cost 15% more CPU per ingested upload, likely because the
// observer's tables and the cache arrays then evict each other.
func (r *Replayer) Replay(ctx context.Context, batch []trace.Access) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.observe != nil {
		for _, a := range batch {
			r.observe(a)
		}
	}
	for _, a := range batch {
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
		chunk = windowChunk
	}
	done, err := r.feed(ctx, newFeeder(fromReader(tr), chunk), 0, math.MaxInt, progress)
	return uint64(done), err
}

// windowChunk is Window's chunk when progress is reported or an observer
// is attached, so an ingest job's done counter advances in 64Ki steps.
const windowChunk = 1 << 16

// Warmup is how many of a window's n accesses warm the caches: the first
// quarter. Without it, compulsory misses of the cache-resident working
// set would swamp the steady-state LLC traffic of low-traffic workloads.
func Warmup(n int) int { return n / 4 }

// Window is the measurement window behind workload.Measure, the
// system-impact miss ratios and ingestion: it replays exactly n accesses
// from src, the first Warmup(n) of them to warm the caches, and returns
// the counters of the rest. It feeds the hierarchy in chunks, with a cut
// at the warmup boundary, and checks ctx before each. A chunk is at most
// 64Ki accesses when progress is reported, and progress then sees the
// cumulative count after each, or when an observer is attached, whose
// pass runs over whole chunks (ingestion has one, with or without
// progress). Otherwise a chunk is at most one canonical block
// (trace.DefaultBlockAccesses), so a generator window (workload.Measure,
// the system-impact miss replay) stages its accesses through a small
// buffer that stays in cache next to the cache arrays, not a 1.1 MiB
// one. Chunking never changes the counters. A source that ends before n
// accesses is a *ShortSourceError, never a short window.
func (r *Replayer) Window(ctx context.Context, src Source, n int, progress func(done uint64)) (HierarchyStats, error) {
	chunk := trace.DefaultBlockAccesses
	if progress != nil || r.observe != nil {
		chunk = windowChunk
	}
	f := newFeeder(src, chunk)
	warm := Warmup(n)
	done, err := r.feed(ctx, f, 0, warm, progress)
	atWarm := r.Snapshot()
	if err == nil && done == warm {
		done, err = r.feed(ctx, f, done, n, progress)
	}
	if err == nil && done < n {
		err = &ShortSourceError{Got: done, Want: n}
	}
	if err != nil {
		return HierarchyStats{}, err
	}
	return r.Snapshot().Sub(atWarm), nil
}

// ShortSourceError is Window's error for a source that ended after Got of
// the window's Want accesses.
type ShortSourceError struct{ Got, Want int }

func (e *ShortSourceError) Error() string {
	return fmt.Sprintf("sim: source ended early at access %d of %d", e.Got, e.Want)
}

// feed is the one chunked replay loop: it replays f's accesses until done
// reaches end or the source ends, one Replay (and so one ctx check) per
// chunk, reporting cumulative progress after each, and returns the new
// done count.
func (r *Replayer) feed(ctx context.Context, f *feeder, done, end int, progress func(done uint64)) (int, error) {
	for done < end {
		batch, err := f.next(min(f.chunk, end-done))
		if err != nil || len(batch) == 0 {
			return done, err
		}
		if err := r.Replay(ctx, batch); err != nil {
			return done, err
		}
		done += len(batch)
		if progress != nil {
			progress(uint64(done))
		}
	}
	return done, nil
}

// Source is an access stream a replay reads (FromCanonical,
// FromGenerator). It writes the next accesses into dst, which is always
// at least one canonical block long, and returns how many it wrote;
// io.EOF, possibly alongside the last accesses, ends the stream.
type Source func(dst []trace.Access) (int, error)

// FromCanonical reads canonical .ctrace bytes (no block longer than
// trace.DefaultBlockAccesses, as trace.CanonicalBinary proves): each block
// decodes straight into the replay buffer, with no copy. A longer block
// is a decode error; ReplayReader takes any framing.
func FromCanonical(data []byte) Source {
	return trace.NewBinaryReader(bytes.NewReader(data)).ReadBlockInto
}

// fromReader reads any trace.Reader: a .ctrace decoder block by block,
// each block (of any length) copied out in pieces, and any other reader
// access by access.
func fromReader(tr trace.Reader) Source {
	if br, ok := tr.(*trace.BinaryReader); ok {
		var block []trace.Access
		return func(dst []trace.Access) (int, error) {
			if len(block) == 0 {
				b, err := br.ReadBlock()
				if err != nil {
					return 0, err
				}
				block = b
			}
			n := copy(dst, block)
			block = block[n:]
			return n, nil
		}
	}
	return func(dst []trace.Access) (int, error) {
		dst = dst[:min(len(dst), trace.DefaultBlockAccesses)]
		for i := range dst {
			a, err := tr.Next()
			if err != nil {
				return i, err
			}
			dst[i] = a
		}
		return len(dst), nil
	}
}

// FromGenerator reads a generator's endless stream, up to a block per
// call: one call per access cost 12-15% more CPU on the calibration
// replay.
func FromGenerator(g trace.Generator) Source {
	return func(dst []trace.Access) (int, error) {
		dst = dst[:min(len(dst), trace.DefaultBlockAccesses)]
		for i := range dst {
			dst[i] = g.Next()
		}
		return len(dst), nil
	}
}

// feeder fills one reused buffer from a Source and hands it out in
// chunks of at most chunk accesses, so a replay can snapshot exactly at
// the warmup cut, which block framing does not align with. The buffer
// holds chunk accesses plus one canonical block: a fill stops as soon as
// the request is covered, so the block that crosses it always fits, and
// its unconsumed tail moves to the front before the next fill. That one
// buffer is the replay's whole footprint; no window is materialized.
type feeder struct {
	src    Source
	chunk  int
	buf    []trace.Access
	lo, hi int // buf[lo:hi] is filled but not yet handed out
	eof    bool
}

func newFeeder(src Source, chunk int) *feeder {
	return &feeder{src: src, chunk: chunk, buf: make([]trace.Access, chunk+trace.DefaultBlockAccesses)}
}

// next returns up to max (at most the chunk) accesses; fewer only at the
// end of the stream. The slice is valid until the next call.
func (f *feeder) next(max int) ([]trace.Access, error) {
	if f.hi-f.lo < max && !f.eof {
		f.hi = copy(f.buf, f.buf[f.lo:f.hi])
		f.lo = 0
		for f.hi < max {
			n, err := f.src(f.buf[f.hi:])
			f.hi += n
			if errors.Is(err, io.EOF) {
				f.eof = true
				break
			}
			if err != nil {
				return nil, err
			}
		}
	}
	n := min(max, f.hi-f.lo)
	out := f.buf[f.lo : f.lo+n]
	f.lo += n
	return out, nil
}

// Snapshot captures the hierarchy's counters; Accesses is the number of
// accesses replayed so far.
func (r *Replayer) Snapshot() HierarchyStats { return r.h.Snapshot() }
