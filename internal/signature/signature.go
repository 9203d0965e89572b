// Package signature computes compact locality signatures of memory access
// streams: a log-bucketed reuse-interval histogram, the read/write mix,
// the block footprint, and a stride sketch. A signature is accumulated
// during replay — one Observe per access, in stream order — so ingestion
// pays no second pass over the trace, and its canonical encoding is
// deterministic: the same access sequence yields byte-identical encodings
// whether it was replayed serially or sharded, decoded from the text or
// the binary trace format. Signatures are the currency of near-duplicate
// workload detection (internal/ingest) and trace-to-generator
// distillation (internal/distill). Standard library only.
package signature

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"coldtall/internal/trace"
)

const (
	// ReuseBuckets spans reuse intervals up to 2^23 accesses — the ingest
	// cap — in power-of-two buckets: bucket i counts re-references whose
	// distance d (in accesses since the previous touch of the same block)
	// satisfies 2^i <= d < 2^(i+1), with the last bucket absorbing longer
	// intervals. First touches are not in the histogram; they equal the
	// footprint.
	ReuseBuckets = 24

	// StrideBuckets spans consecutive-access block deltas up to 2^25
	// blocks (a 2 GiB jump) the same way: bucket 0 is a same-block
	// repeat, bucket i >= 1 counts |delta| with 2^(i-1) <= |delta| < 2^i,
	// the last bucket absorbing longer jumps (the region switches of a
	// mixture stream land here).
	StrideBuckets = 26
)

// KeyPrefix namespaces signature entries in the persistent store. Entries
// are content-addressed by the canonical trace encoding they summarize:
// key "sig|<trace sha256>", value Encode() bytes — a pure function of the
// trace, so writes are idempotent and near-duplicate uploads of the same
// bytes share one entry.
const KeyPrefix = "sig|"

// magic heads the canonical encoding; the version digit makes future
// revisions detectable.
const magic = "coldtall-sig/1"

// Signature is the compact locality summary of one access stream. The
// zero value is the signature of an empty stream. Signatures are
// comparable with ==.
type Signature struct {
	// Accesses, Reads, and Writes count the stream (Reads+Writes ==
	// Accesses).
	Accesses uint64 `json:"accesses"`
	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	// FootprintBlocks counts distinct 64 B blocks touched — equivalently
	// the number of first touches, so sum(Reuse) + FootprintBlocks ==
	// Accesses.
	FootprintBlocks uint64 `json:"footprint_blocks"`
	// Reuse is the log-bucketed reuse-interval histogram over
	// re-references.
	Reuse [ReuseBuckets]uint64 `json:"reuse"`
	// Stride is the log-bucketed |block delta| histogram over consecutive
	// access pairs.
	Stride [StrideBuckets]uint64 `json:"stride"`
}

// ReadFrac is the read share of the stream (1 for an empty stream, the
// neutral value for mixing comparisons).
func (s Signature) ReadFrac() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Reads) / float64(s.Accesses)
}

// FootprintBytes is the touched footprint in bytes.
func (s Signature) FootprintBytes() uint64 { return s.FootprintBlocks * trace.BlockBytes }

// ReuseQuantile returns the representative reuse interval (the lower
// bound 2^i of its bucket) below which fraction q of the re-references
// fall, or 0 when the stream has no re-references.
func (s Signature) ReuseQuantile(q float64) uint64 {
	var total uint64
	for _, c := range s.Reuse {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range s.Reuse {
		cum += c
		if cum >= target {
			return 1 << uint(i)
		}
	}
	return 1 << (ReuseBuckets - 1)
}

// SeqFrac is the fraction of consecutive access pairs that step exactly
// one block — the sequential-scan share of the stream.
func (s Signature) SeqFrac() float64 {
	if s.Accesses < 2 {
		return 0
	}
	return float64(s.Stride[1]) / float64(s.Accesses-1)
}

// Encode renders the canonical byte form: fixed field order, decimal
// counts, one field per line. Deterministic by construction — the
// encoding (and so its sha256 content address) depends only on the access
// sequence observed.
func (s Signature) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "accesses %d\n", s.Accesses)
	fmt.Fprintf(&b, "reads %d\n", s.Reads)
	fmt.Fprintf(&b, "writes %d\n", s.Writes)
	fmt.Fprintf(&b, "footprint %d\n", s.FootprintBlocks)
	b.WriteString("reuse")
	for _, c := range s.Reuse {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(c, 10))
	}
	b.WriteByte('\n')
	b.WriteString("stride")
	for _, c := range s.Stride {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(c, 10))
	}
	b.WriteByte('\n')
	return b.Bytes()
}

// SHA256 is the hex content address of the canonical encoding.
func (s Signature) SHA256() string {
	sum := sha256.Sum256(s.Encode())
	return hex.EncodeToString(sum[:])
}

// Decode parses a canonical encoding.
func Decode(data []byte) (Signature, error) {
	var s Signature
	lines := bytes.Split(data, []byte{'\n'})
	if len(lines) < 7 || string(lines[0]) != magic {
		return s, fmt.Errorf("signature: not a %s encoding", magic)
	}
	scalar := func(line []byte, name string) (uint64, error) {
		fields := bytes.Fields(line)
		if len(fields) != 2 || string(fields[0]) != name {
			return 0, fmt.Errorf("signature: malformed %s line %q", name, line)
		}
		return strconv.ParseUint(string(fields[1]), 10, 64)
	}
	var err error
	if s.Accesses, err = scalar(lines[1], "accesses"); err != nil {
		return s, err
	}
	if s.Reads, err = scalar(lines[2], "reads"); err != nil {
		return s, err
	}
	if s.Writes, err = scalar(lines[3], "writes"); err != nil {
		return s, err
	}
	if s.FootprintBlocks, err = scalar(lines[4], "footprint"); err != nil {
		return s, err
	}
	histogram := func(line []byte, name string, dst []uint64) error {
		fields := bytes.Fields(line)
		if len(fields) != 1+len(dst) || string(fields[0]) != name {
			return fmt.Errorf("signature: malformed %s line (%d fields, want %d)", name, len(fields), 1+len(dst))
		}
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(string(f), 10, 64)
			if err != nil {
				return fmt.Errorf("signature: %s[%d]: %w", name, i, err)
			}
			dst[i] = v
		}
		return nil
	}
	if err := histogram(lines[5], "reuse", s.Reuse[:]); err != nil {
		return s, err
	}
	if err := histogram(lines[6], "stride", s.Stride[:]); err != nil {
		return s, err
	}
	return s, nil
}

// Distance weights in Distance. Reuse behaviour dominates — it is what
// the cache hierarchy responds to — with the stride sketch, the R/W mix,
// and the footprint ratio as secondary discriminators.
const (
	wReuse     = 0.45
	wStride    = 0.20
	wRW        = 0.15
	wFootprint = 0.20
	// footprintSaturation is the footprint ratio at which the footprint
	// term saturates to 1 (a 16x size difference is maximally different).
	footprintSaturation = 16
)

// DefaultThreshold is the dedup decision boundary: two workloads whose
// signatures are within this normalized distance are treated as
// near-duplicates at ingest time. Empirically, re-uploads of the same
// stream (or the same generator under a different seed) land well under
// 0.01 while distinct SPEC stand-in profiles sit above 0.05.
const DefaultThreshold = 0.03

// Distance is the normalized dissimilarity of two signatures in [0, 1]:
// a weighted sum of the L1 distances between the normalized reuse
// histograms (first touches included as a cold share) and stride
// histograms, the read-fraction gap, and the saturated log footprint
// ratio. Identical signatures are at distance 0.
func Distance(a, b Signature) float64 {
	reuse := histDistance(reuseShares(a), reuseShares(b))
	stride := histDistance(strideShares(a), strideShares(b))
	rw := math.Abs(a.ReadFrac() - b.ReadFrac())
	return wReuse*reuse + wStride*stride + wRW*rw + wFootprint*footprintDistance(a, b)
}

// reuseShares normalizes the reuse histogram plus the cold (first-touch)
// share by total accesses, so the vector sums to 1 for non-empty streams.
func reuseShares(s Signature) []float64 {
	out := make([]float64, 1+ReuseBuckets)
	if s.Accesses == 0 {
		return out
	}
	n := float64(s.Accesses)
	out[0] = float64(s.FootprintBlocks) / n
	for i, c := range s.Reuse {
		out[1+i] = float64(c) / n
	}
	return out
}

// strideShares normalizes the stride histogram by its sample count.
func strideShares(s Signature) []float64 {
	out := make([]float64, StrideBuckets)
	if s.Accesses < 2 {
		return out
	}
	n := float64(s.Accesses - 1)
	for i, c := range s.Stride {
		out[i] = float64(c) / n
	}
	return out
}

// histDistance is half the L1 distance between two share vectors — the
// total variation distance, in [0, 1].
func histDistance(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d / 2
}

// footprintDistance is |log(fa/fb)| scaled so a footprintSaturation-fold
// ratio saturates at 1. Empty footprints only match empty footprints.
func footprintDistance(a, b Signature) float64 {
	fa, fb := float64(a.FootprintBlocks), float64(b.FootprintBlocks)
	switch {
	case fa == 0 && fb == 0:
		return 0
	case fa == 0 || fb == 0:
		return 1
	}
	hi, lo := fa, fb
	if hi < lo {
		hi, lo = lo, hi
	}
	// Dividing the larger by the smaller (rather than taking |log(fa/fb)|)
	// keeps the distance exactly symmetric in floating point.
	d := math.Log(hi/lo) / math.Log(footprintSaturation)
	return math.Min(d, 1)
}

// Accumulator builds a Signature incrementally. Feed it every access of
// the stream, in order, via Observe; it is not safe for concurrent use —
// the sharded replayer invokes its observer from the serial partition
// phase, which sees the stream in global order at any shard count.
type Accumulator struct {
	sig       Signature
	last      lastTouch // block number -> 1-based access position of the previous touch
	prevBlock uint64
	started   bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{last: newLastTouch()}
}

// blockShift converts addresses to 64 B block numbers.
var blockShift = uint(bits.TrailingZeros64(trace.BlockBytes))

// Observe accumulates one access.
func (a *Accumulator) Observe(ac trace.Access) {
	a.sig.Accesses++
	if ac.Write {
		a.sig.Writes++
	} else {
		a.sig.Reads++
	}
	block := ac.Addr >> blockShift
	pos := a.sig.Accesses // 1-based position of this access
	if prev, ok := a.last.swap(block, pos); ok {
		a.sig.Reuse[logBucket(pos-prev, ReuseBuckets)]++
	} else {
		a.sig.FootprintBlocks++
	}
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

// logBucket maps v >= 1 to its power-of-two bucket index, clamped.
func logBucket(v uint64, buckets int) int {
	b := bits.Len64(v) - 1
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

// Signature returns the summary accumulated so far.
func (a *Accumulator) Signature() Signature { return a.sig }

// FromGenerator accumulates the signature of the first n accesses of a
// generator — the pinned-parameter path that gives the built-in profiles
// deterministic reference signatures.
func FromGenerator(g trace.Generator, n int) Signature {
	acc := NewAccumulator()
	for i := 0; i < n; i++ {
		acc.Observe(g.Next())
	}
	return acc.Signature()
}
