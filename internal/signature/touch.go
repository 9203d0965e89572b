package signature

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// lastTouch maps block numbers to the 1-based stream position of their
// latest access: the state behind the reuse-interval histogram. It is an
// open-addressed hash table — power-of-two chunks, linear probing, a 3/4
// maximum load — so one probe sequence per access both reads the previous
// position and stores the new one (swap).
//
// The table is a directory of chunks indexed by the top bits of the hash
// (extendible hashing): a full chunk doubles until it holds
// maxChunkSlots slots, and then splits in two on the next hash bit. No
// allocation is larger than a chunk or the directory, so a large footprint
// grows in small steps instead of copying one ever-larger array, which
// would hold two copies at each doubling and leave them as garbage.
//
// Positions are stored as uint32 next to the key (12 B per slot) while
// they fit; when the stream reaches position 2^32 the table is rebuilt
// with 64-bit positions, so the accumulator stays exact on any stream
// length. Nothing observable depends on the layout: swap's answers are
// those of a map.
//
// The hash is keyed by a per-table random seed through a 128-bit multiply
// mixer. Ingest folds user-supplied traces, and an unkeyed hash would let a
// crafted address set collide into one probe run, or one chunk, and make
// the fold quadratic.
type lastTouch struct {
	seed   [2]uint64
	narrow touchTable[uint32]
	wide   *touchTable[uint64] // non-nil once a position exceeds MaxUint32
}

// touchSlot is one table slot. pos 0 marks an empty slot (positions are
// 1-based); the key is split into two words so a uint32 slot packs into
// 12 bytes.
type touchSlot[P uint32 | uint64] struct {
	keyLo, keyHi uint32
	pos          P
}

// touchTable is the chunk directory for one position width: entry i holds
// the chunk for hashes whose top depth bits are i. A chunk of depth d < depth
// owns the 2^(depth-d) consecutive entries that share its top d bits.
type touchTable[P uint32 | uint64] struct {
	depth uint
	dir   []*touchChunk[P]
}

// touchChunk is one open-addressed slot array, probed by the low hash bits.
type touchChunk[P uint32 | uint64] struct {
	depth uint // the number of top hash bits all its keys share
	used  int
	slots []touchSlot[P]
}

const (
	// minChunkSlots is a new table's single chunk.
	minChunkSlots = 64
	// maxChunkSlots is where a full chunk splits instead of doubling
	// (24 KB of 12-byte slots).
	maxChunkSlots = 2048
	// maxDirDepth bounds the directory at 2^20 entries (8 MB, enough for
	// ~10^9 blocks); a chunk at that depth keeps doubling instead.
	maxDirDepth = 20
)

// newLastTouch returns an empty table with a fresh random hash seed.
func newLastTouch() lastTouch {
	return lastTouch{seed: [2]uint64{rand.Uint64(), rand.Uint64()}}
}

// mix hashes a block number under the seed: two rounds of a 128-bit
// multiply folded to 64 bits (the wyhash mixer), so every key bit reaches
// both the top bits the directory reads and the low bits a chunk probes.
func mix(seed [2]uint64, block uint64) uint64 {
	hi, lo := bits.Mul64(block^seed[0], seed[1]^0xe7037ed1a0b428db)
	hi, lo = bits.Mul64(hi^lo^seed[1], 0x8ebc6af09c88c6e3)
	return hi ^ lo
}

// swap stores pos as block's latest position and returns the position it
// replaces, with ok false on the block's first touch. Positions must be
// nonzero and increase from call to call.
func (t *lastTouch) swap(block, pos uint64) (prev uint64, ok bool) {
	h := mix(t.seed, block)
	if t.wide == nil {
		if pos <= math.MaxUint32 {
			prev, ok := t.narrow.swap(t.seed, h, block, uint32(pos))
			return uint64(prev), ok
		}
		t.widen()
	}
	return t.wide.swap(t.seed, h, block, pos)
}

// widen moves every entry into a table with 64-bit positions. A key's
// hash is unchanged, so each chunk converts slot for slot in place.
func (t *lastTouch) widen() {
	w := &touchTable[uint64]{depth: t.narrow.depth, dir: make([]*touchChunk[uint64], len(t.narrow.dir))}
	for i, c := range t.narrow.dir {
		if i > 0 && c == t.narrow.dir[i-1] {
			w.dir[i] = w.dir[i-1]
			continue
		}
		wc := &touchChunk[uint64]{depth: c.depth, used: c.used, slots: make([]touchSlot[uint64], len(c.slots))}
		for j, s := range c.slots {
			wc.slots[j] = touchSlot[uint64]{keyLo: s.keyLo, keyHi: s.keyHi, pos: uint64(s.pos)}
		}
		w.dir[i] = wc
	}
	t.wide, t.narrow = w, touchTable[uint32]{}
}

// swap is lastTouch.swap on one table; h is mix(seed, block).
func (t *touchTable[P]) swap(seed [2]uint64, h, block uint64, pos P) (P, bool) {
	if len(t.dir) == 0 {
		t.dir = []*touchChunk[P]{{slots: make([]touchSlot[P], minChunkSlots)}}
	}
	c := t.dir[h>>(64-t.depth)]
	lo, hi := uint32(block), uint32(block>>32)
	mask := uint64(len(c.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.pos == 0 {
			s.keyLo, s.keyHi, s.pos = lo, hi, pos
			c.used++
			if 4*c.used > 3*len(c.slots) {
				t.grow(seed, c, h)
			}
			return 0, false
		}
		if s.keyLo == lo && s.keyHi == hi {
			prev := s.pos
			s.pos = pos
			return prev, true
		}
	}
}

// grow relieves a full chunk c, which owns hash h: below maxChunkSlots it
// doubles, otherwise it splits into two chunks on its next hash bit,
// doubling the directory first when c already uses all of its bits.
func (t *touchTable[P]) grow(seed [2]uint64, c *touchChunk[P], h uint64) {
	old := c.slots
	if len(old) < maxChunkSlots || c.depth >= maxDirDepth {
		c.slots, c.used = make([]touchSlot[P], 2*len(old)), 0
		for _, s := range old {
			if s.pos != 0 {
				c.insert(mix(seed, s.key()), s)
			}
		}
		return
	}
	if c.depth == t.depth {
		dir := make([]*touchChunk[P], 2*len(t.dir))
		for i := range dir {
			dir[i] = t.dir[i>>1]
		}
		t.dir, t.depth = dir, t.depth+1
	}
	low := &touchChunk[P]{depth: c.depth + 1, slots: make([]touchSlot[P], len(old))}
	high := &touchChunk[P]{depth: c.depth + 1, slots: make([]touchSlot[P], len(old))}
	bit := 63 - c.depth
	for _, s := range old {
		if s.pos == 0 {
			continue
		}
		sh := mix(seed, s.key())
		if sh>>bit&1 == 0 {
			low.insert(sh, s)
		} else {
			high.insert(sh, s)
		}
	}
	// c owns a run of 2^(depth - c.depth) entries; the lower half of the
	// run has the next bit clear.
	run := uint64(1) << (t.depth - c.depth)
	start := (h >> (64 - t.depth)) &^ (run - 1)
	for i := start; i < start+run; i++ {
		if i < start+run/2 {
			t.dir[i] = low
		} else {
			t.dir[i] = high
		}
	}
}

// key reassembles the slot's block number.
func (s touchSlot[P]) key() uint64 { return uint64(s.keyHi)<<32 | uint64(s.keyLo) }

// insert places a slot whose key (hash h) is absent, without a load check:
// the callers size the chunk first.
func (c *touchChunk[P]) insert(h uint64, s touchSlot[P]) {
	mask := uint64(len(c.slots) - 1)
	i := h & mask
	for c.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	c.slots[i] = s
	c.used++
}
