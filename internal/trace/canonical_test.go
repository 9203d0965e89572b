package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// frameBlock is one parsed .ctrace block: its access count and payload.
type frameBlock struct {
	count   uint64
	payload []byte
}

// splitFrames parses a well-formed stream into its blocks.
func splitFrames(t testing.TB, data []byte) []frameBlock {
	t.Helper()
	var out []frameBlock
	o := len(binaryMagic)
	for o < len(data) {
		count, n := binary.Uvarint(data[o:])
		o += n
		size, n := binary.Uvarint(data[o:])
		o += n
		if n <= 0 || o+int(size)+4 > len(data) {
			t.Fatalf("splitFrames: malformed frame at offset %d", o)
		}
		out = append(out, frameBlock{count, append([]byte(nil), data[o:o+int(size)]...)})
		o += int(size) + 4
	}
	return out
}

// joinFrames frames blocks into a stream with minimal frame varints and
// freshly computed CRCs.
func joinFrames(blocks []frameBlock) []byte {
	out := []byte(binaryMagic)
	for _, b := range blocks {
		out = binary.AppendUvarint(out, b.count)
		out = binary.AppendUvarint(out, uint64(len(b.payload)))
		out = append(out, b.payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(b.payload))
	}
	return out
}

// padVarint re-encodes the varint ending at p[end] one byte longer: the
// value is unchanged, so the decoder reads the same number, but the
// encoding is no longer minimal.
func padVarint(p []byte, end int) []byte {
	out := append([]byte(nil), p[:end]...)
	out = append(out, p[end]|0x80, 0)
	return append(out, p[end+1:]...)
}

// varintEnds lists the offsets of the bytes that end a varint in a block
// payload (everything but the first-kind byte).
func varintEnds(p []byte) []int {
	_, n := binary.Uvarint(p)
	ends := []int{n - 1}
	for i := n + 1; i < len(p); i++ {
		if p[i] < 0x80 {
			ends = append(ends, i)
		}
	}
	return ends
}

// checkCanonicalOracle asserts CanonicalBinary against its definition:
// accept iff the decoder accepts data and EncodeBinary of the decoded
// accesses reproduces data byte for byte, with the decoded count.
func checkCanonicalOracle(t *testing.T, data []byte) {
	t.Helper()
	n, ok := CanonicalBinary(data)
	decoded, err := ReadAll(NewBinaryReader(bytes.NewReader(data)))
	want := err == nil && bytes.Equal(EncodeBinary(decoded), data)
	if ok != want {
		t.Fatalf("CanonicalBinary = %v, want %v (decode error %v, %d bytes)", ok, want, err, len(data))
	}
	if ok && n != len(decoded) {
		t.Fatalf("CanonicalBinary counted %d accesses, decoder %d", n, len(decoded))
	}
}

func TestCanonicalBinary(t *testing.T) {
	in := sampleAccesses(t, 2*DefaultBlockAccesses+300)
	canonical := EncodeBinary(in)
	blocks := splitFrames(t, canonical)
	padded := func(block, end int) []byte {
		bs := append([]frameBlock(nil), blocks...)
		bs[block].payload = padVarint(bs[block].payload, end)
		return joinFrames(bs)
	}
	ends := varintEnds(blocks[0].payload)
	last := len(blocks) - 1

	accept := map[string]struct {
		data []byte
		n    int
	}{
		"magic only":     {[]byte(binaryMagic), 0},
		"one access":     {EncodeBinary(in[:1]), 1},
		"one full block": {EncodeBinary(in[:DefaultBlockAccesses]), DefaultBlockAccesses},
		"short last":     {canonical, len(in)},
		"rejoined":       {joinFrames(blocks), len(in)},
		"ten-byte delta": {EncodeBinary([]Access{{Addr: 1 << 63}}), 1},
	}
	for name, tc := range accept {
		t.Run(name, func(t *testing.T) {
			if n, ok := CanonicalBinary(tc.data); !ok || n != tc.n {
				t.Fatalf("CanonicalBinary = %d, %v; want %d, true", n, ok, tc.n)
			}
			checkCanonicalOracle(t, tc.data)
		})
	}

	short := append(EncodeBinary(in[:100]), EncodeBinary(in[100:])[len(binaryMagic):]...)
	reject := map[string][]byte{
		"empty":             nil,
		"bad magic":         append([]byte("ctrace2\n"), canonical[len(binaryMagic):]...),
		"short first block": short,
		"padded run count":  padded(0, ends[0]),
		"padded run length": padded(0, ends[1]),
		"padded delta":      padded(0, ends[len(ends)-1]),
		"padded last delta": padded(last, len(blocks[last].payload)-1),
		"padded count": func() []byte {
			// The frame's count varint, padded, with the rest intact.
			enc := binary.AppendUvarint(nil, blocks[0].count)
			out := append([]byte(binaryMagic), padVarint(enc, len(enc)-1)...)
			return append(out, canonical[len(binaryMagic)+len(enc):]...)
		}(),
		"trailing byte": append(append([]byte(nil), canonical...), 0),
		"truncated":     canonical[:len(canonical)-1],
		"bad crc":       func() []byte { c := append([]byte(nil), canonical...); c[len(c)-1] ^= 1; return c }(),
		"trailing payload": func() []byte {
			bs := append([]frameBlock(nil), blocks...)
			bs[last].payload = append(append([]byte(nil), bs[last].payload...), 0)
			return joinFrames(bs)
		}(),
		"delta overflows": func() []byte {
			// The last delta becomes a 10-byte varint whose final byte
			// carries bits past 64.
			bs := append([]frameBlock(nil), blocks...)
			p := bs[0].payload[:ends[len(ends)-2]+1]
			bs[0].payload = append(append([]byte(nil), p...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)
			return joinFrames(bs)
		}(),
		"runs short of block": func() []byte {
			bs := append([]frameBlock(nil), blocks...)
			bs[last].count++
			return joinFrames(bs)
		}(),
	}
	for name, data := range reject {
		t.Run(name, func(t *testing.T) {
			if _, ok := CanonicalBinary(data); ok {
				t.Fatal("CanonicalBinary accepted a non-canonical stream")
			}
			checkCanonicalOracle(t, data)
		})
	}
	// Padding a value's encoding keeps what the decoder reads.
	got, err := ReadAll(NewBinaryReader(bytes.NewReader(padded(0, ends[len(ends)-1]))))
	if err != nil || len(got) != len(in) || got[0] != in[0] {
		t.Fatalf("padded stream no longer decodes to the same accesses: %v", err)
	}
}

func TestReadBlockInto(t *testing.T) {
	in := sampleAccesses(t, DefaultBlockAccesses+10)
	br := NewBinaryReader(bytes.NewReader(EncodeBinary(in)))
	buf := make([]Access, DefaultBlockAccesses)
	n, err := br.ReadBlockInto(buf)
	if err != nil || n != DefaultBlockAccesses {
		t.Fatalf("first block: %d, %v", n, err)
	}
	for i := range n {
		if buf[i] != in[i] {
			t.Fatalf("access %d = %+v, want %+v", i, buf[i], in[i])
		}
	}
	if n, err := br.ReadBlockInto(buf[:5]); err == nil {
		t.Fatalf("a 10-access block fit a 5-access buffer (%d)", n)
	}
	if _, err := br.ReadBlockInto(buf); err == nil {
		t.Fatal("the overflow error did not stick")
	}
}

// TestMinimalVarints pins the word-at-a-time scan against a byte-at-a-time
// decode on byte strings rich in continuation bytes, zero bytes and long
// varints, at every alignment.
func TestMinimalVarints(t *testing.T) {
	reference := func(p []byte) bool {
		for len(p) > 0 {
			_, k := minimalUvarint(p)
			if k == 0 {
				return false
			}
			p = p[k:]
		}
		return true
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{0x00, 0x01, 0x02, 0x7f, 0x80, 0x81, 0xff}
	for i := 0; i < 200000; i++ {
		p := make([]byte, rng.Intn(40))
		ends := 0 // the varint count a clean scan would report
		for j := range p {
			if rng.Intn(3) == 0 {
				p[j] = byte(rng.Intn(256))
			} else {
				p[j] = alphabet[rng.Intn(len(alphabet))]
			}
			if p[j] < 0x80 {
				ends++
			}
		}
		if got, want := minimalVarints(p, ends), reference(p); got != want {
			t.Fatalf("minimalVarints(% x, %d) = %v, reference %v", p, ends, got, want)
		}
		if minimalVarints(p, ends+1) {
			t.Fatalf("minimalVarints(% x) accepted a wrong count", p)
		}
	}
}
