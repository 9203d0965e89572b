package signature

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"coldtall/internal/trace"
)

// mapAccumulator is the reference fold: the reuse state in a Go map, one
// lookup and one assignment per access. The production Accumulator must
// produce the same Signature on every stream.
type mapAccumulator struct {
	sig       Signature
	last      map[uint64]uint64
	prevBlock uint64
	started   bool
}

func newMapAccumulator() *mapAccumulator {
	return &mapAccumulator{last: make(map[uint64]uint64)}
}

func (a *mapAccumulator) Observe(ac trace.Access) {
	a.sig.Accesses++
	if ac.Write {
		a.sig.Writes++
	} else {
		a.sig.Reads++
	}
	block := ac.Addr >> blockShift
	pos := a.sig.Accesses
	if prev, ok := a.last[block]; ok {
		a.sig.Reuse[logBucket(pos-prev, ReuseBuckets)]++
	} else {
		a.sig.FootprintBlocks++
	}
	a.last[block] = pos
	if a.started {
		delta := block - a.prevBlock
		if block < a.prevBlock {
			delta = a.prevBlock - block
		}
		if delta == 0 {
			a.sig.Stride[0]++
		} else {
			a.sig.Stride[logBucket(delta, StrideBuckets-1)+1]++
		}
	}
	a.prevBlock, a.started = block, true
}

// foldBoth runs one stream through the production accumulator and the map
// reference, both with their position counters starting at base, and
// fails on any difference.
func foldBoth(t testing.TB, name string, base uint64, stream []trace.Access) {
	t.Helper()
	got, want := NewAccumulator(), newMapAccumulator()
	got.sig.Accesses, want.sig.Accesses = base, base
	for _, ac := range stream {
		got.Observe(ac)
		want.Observe(ac)
	}
	if got.sig != want.sig {
		t.Fatalf("%s: accumulator diverges from the map reference\n got: %+v\nwant: %+v", name, got.sig, want.sig)
	}
}

// blocksToStream turns block numbers into accesses, every third a write.
func blocksToStream(blocks []uint64) []trace.Access {
	out := make([]trace.Access, len(blocks))
	for i, b := range blocks {
		out[i] = trace.Access{Addr: b << blockShift, Write: i%3 == 0}
	}
	return out
}

func TestAccumulatorMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(18))

	// Random streams over working sets from tiny (heavy reuse) to large
	// (mostly first touches), at full 64-bit addresses.
	for _, set := range []int{1, 7, 300, 5000, 1 << 16} {
		pool := make([]uint64, set)
		for i := range pool {
			pool[i] = rng.Uint64() >> blockShift
		}
		blocks := make([]uint64, 40000)
		for i := range blocks {
			blocks[i] = pool[rng.Intn(set)]
		}
		foldBoth(t, "random", 0, blocksToStream(blocks))
	}

	// Colliding block sets: keys equal in their low 32 bits (only the
	// high slot word differs), power-of-two strides, and keys that share
	// one home slot under the table's own seed, so probe runs wrap and
	// lengthen.
	var sameLow, strided []uint64
	for i := uint64(0); i < 2000; i++ {
		sameLow = append(sameLow, i<<32|0xdead)
		strided = append(strided, i<<20)
	}
	sameSlot := collidingBlocks(newLastTouch().seed, 1024, 200)
	for name, pool := range map[string][]uint64{"same-low-word": sameLow, "strided": strided} {
		blocks := make([]uint64, 30000)
		for i := range blocks {
			blocks[i] = pool[rng.Intn(len(pool))]
		}
		foldBoth(t, name, 0, blocksToStream(blocks))
	}
	// The same-slot set only collides under the seed it was mined for:
	// fold it through a table carrying that seed.
	got, want := NewAccumulator(), newMapAccumulator()
	got.last.seed = sameSlot.seed
	for i := 0; i < 20000; i++ {
		ac := trace.Access{Addr: sameSlot.blocks[rng.Intn(len(sameSlot.blocks))] << blockShift}
		got.Observe(ac)
		want.Observe(ac)
	}
	if got.sig != want.sig {
		t.Fatalf("same-slot: accumulator diverges from the map reference\n got: %+v\nwant: %+v", got.sig, want.sig)
	}

	// All-distinct streams: every access a first touch, forcing chunks
	// through doublings and splits, then a second pass re-touching every
	// block.
	for _, n := range []int{minChunkSlots * 3 / 4, minChunkSlots*3/4 + 1, maxChunkSlots*3/4 + 1, 100000} {
		blocks := make([]uint64, 0, 2*n)
		for i := 0; i < n; i++ {
			blocks = append(blocks, uint64(i)*977+13)
		}
		blocks = append(blocks, blocks...)
		foldBoth(t, "distinct", 0, blocksToStream(blocks))
	}

	// Position counters just below 2^32: the table widens to 64-bit
	// positions mid-stream, with reuse intervals spanning the switch.
	// The largest case widens a table of many chunks.
	for _, base := range []uint64{math.MaxUint32 - 5000, math.MaxUint32 - 30000, math.MaxUint32 - 1, math.MaxUint32} {
		for _, set := range []int{900, 40000} {
			blocks := make([]uint64, 60000)
			for i := range blocks {
				blocks[i] = uint64(rng.Intn(set))
			}
			foldBoth(t, "widening", base, blocksToStream(blocks))
		}
	}
}

// seededBlocks is a block set mined to collide under one table seed.
type seededBlocks struct {
	seed   [2]uint64
	blocks []uint64
}

// collidingBlocks finds n blocks whose hashes under seed share one home
// slot in a table of the given capacity.
func collidingBlocks(seed [2]uint64, capacity, n int) seededBlocks {
	mask := uint64(capacity - 1)
	var out []uint64
	for b := uint64(0); len(out) < n; b++ {
		if mix(seed, b)&mask == 0 {
			out = append(out, b)
		}
	}
	return seededBlocks{seed: seed, blocks: out}
}

// TestLastTouchSeedsDiffer pins the hostile-input defence: two tables get
// different seeds, so a block set mined to collide under one seed spreads
// out under another.
func TestLastTouchSeedsDiffer(t *testing.T) {
	a, b := newLastTouch(), newLastTouch()
	if a.seed == b.seed {
		t.Fatal("two tables drew the same hash seed")
	}
	mined := collidingBlocks(a.seed, 1024, 64)
	homes := make(map[uint64]bool)
	for _, blk := range mined.blocks {
		homes[mix(b.seed, blk)&1023] = true
	}
	// 64 keys thrown into 1024 slots land in ~62 distinct slots; the mined
	// set would land in one if the seed did not matter.
	if len(homes) < 32 {
		t.Fatalf("a block set mined for one seed shares %d home slots under another", len(homes))
	}
}

// TestAccumulatorObserveAllocs pins the fold's allocation budget: once the
// table holds the working set, an access allocates nothing.
func TestAccumulatorObserveAllocs(t *testing.T) {
	acc := NewAccumulator()
	stream := make([]trace.Access, 4096)
	for i := range stream {
		stream[i] = trace.Access{Addr: uint64(i%1500) << blockShift, Write: i%5 == 0}
	}
	for _, ac := range stream {
		acc.Observe(ac)
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		acc.Observe(stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm Observe allocates %.2f times per access, want 0", allocs)
	}
}

// FuzzAccumulatorMatchesMap differences the accumulator against the map
// reference on arbitrary streams: each 3 input bytes are one access (a
// block from a small space, so blocks recur, and a write flag), and the
// leading 8 bytes, when present, offset the position counter.
func FuzzAccumulatorMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xfe, 0, 0, 0, 0, 1, 2, 3, 1, 2, 3, 4, 5, 6})
	f.Add(make([]byte, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		var base uint64
		if len(data) >= 8 {
			// Keep the counter below 2^33 so it cannot overflow.
			base = binary.BigEndian.Uint64(data) % (1 << 33)
			data = data[8:]
		}
		var stream []trace.Access
		for len(data) >= 3 {
			block := uint64(binary.BigEndian.Uint16(data)) % 509
			if data[2]&0x80 != 0 {
				block <<= 40 // far blocks: large strides, high key word
			}
			stream = append(stream, trace.Access{Addr: block << blockShift, Write: data[2]&1 == 1})
			data = data[3:]
		}
		foldBoth(t, "fuzz", base, stream)
	})
}

// BenchmarkAccumulatorObserve measures one Observe on the wlsig shape: a
// fresh accumulator per 32,768-access Zipf stream, so table growth is
// amortized in as the artifact pays it.
func BenchmarkAccumulatorObserve(b *testing.B) {
	g, err := trace.NewZipf(trace.Region{Base: 0, Size: 64 << 20}, 1.3, 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	stream := make([]trace.Access, 32768)
	for i := range stream {
		stream[i] = g.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc *Accumulator
	for i := 0; i < b.N; i++ {
		j := i % len(stream)
		if j == 0 {
			acc = NewAccumulator()
		}
		acc.Observe(stream[j])
	}
}
