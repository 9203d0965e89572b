package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzBinaryDecode feeds arbitrary bytes to the binary decoder: it must
// reject corruption with an error (never panic or spin), and any stream it
// does accept must re-encode and re-decode to the same accesses.
func FuzzBinaryDecode(f *testing.F) {
	f.Add([]byte(binaryMagic))
	f.Add(EncodeBinary(nil))
	f.Add(EncodeBinary([]Access{{Addr: 0x40}, {Addr: 0x80, Write: true}}))
	f.Add(EncodeBinary(Collect(mustStream(f), 300)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		decoded, err := ReadAll(NewBinaryReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		again, err := ReadAll(NewBinaryReader(bytes.NewReader(EncodeBinary(decoded))))
		if err != nil {
			t.Fatalf("re-decoding a canonical re-encode failed: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("re-decode length %d, want %d", len(again), len(decoded))
		}
		for i := range decoded {
			if decoded[i] != again[i] {
				t.Fatalf("access %d drifted: %+v vs %+v", i, decoded[i], again[i])
			}
		}
	})
}

// FuzzCanonicalBinary checks CanonicalBinary against its definition on
// streams that get past the CRC, which raw byte mutation almost never
// does: the fuzzer's bytes become accesses, the stream is optionally
// spliced from two EncodeBinary halves (a non-default block split), and
// one varint is optionally padded or one payload byte flipped, with the
// frame and CRC rebuilt. The check must accept exactly the streams that
// decode cleanly and re-encode to themselves, and count their accesses.
func FuzzCanonicalBinary(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0), uint8(0))
	f.Add([]byte{0x40, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(9000), uint16(0), uint16(0), uint8(0))
	f.Add([]byte{0x40, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(9000), uint16(4096), uint16(0), uint8(0))
	f.Add([]byte{0xc0, 0xff, 3, 0, 0, 0, 0, 0x80, 0}, uint16(5000), uint16(100), uint16(0), uint8(0))
	f.Add([]byte{0x40, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(300), uint16(0), uint16(17), uint8(1))
	f.Add([]byte{0x40, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(300), uint16(0), uint16(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed []byte, n, split, at uint16, edit uint8) {
		accesses := fuzzAccesses(seed, int(n)%(3*DefaultBlockAccesses))
		data := EncodeBinary(accesses)
		if k := int(split); k > 0 && k < len(accesses) {
			data = append(EncodeBinary(accesses[:k]), EncodeBinary(accesses[k:])[len(binaryMagic):]...)
		}
		if blocks := splitFrames(t, data); len(blocks) > 0 && edit%3 != 0 {
			b := &blocks[int(at)%len(blocks)]
			if edit%3 == 1 {
				ends := varintEnds(b.payload)
				b.payload = padVarint(b.payload, ends[int(at)%len(ends)])
			} else {
				b.payload = append([]byte(nil), b.payload...)
				b.payload[int(at)%len(b.payload)] ^= byte(edit)
			}
			data = joinFrames(blocks)
		}
		checkCanonicalOracle(t, data)
	})
}

// fuzzAccesses expands seed into n accesses: each 9-byte window is an
// address and a write flag, perturbed by the index so a short seed still
// yields distinct addresses and both small and large deltas.
func fuzzAccesses(seed []byte, n int) []Access {
	if len(seed) == 0 {
		seed = []byte{0}
	}
	out := make([]Access, n)
	var w [9]byte
	for i := range out {
		for j := range w {
			w[j] = seed[(9*i+j)%len(seed)]
		}
		addr := binary.LittleEndian.Uint64(w[:8])
		out[i] = Access{Addr: addr ^ uint64(i)<<(w[8]%64), Write: w[8]&1 == 1}
	}
	return out
}

// FuzzTextRoundTrip parses arbitrary text; any accepted trace must survive
// text -> binary -> text byte-identically (after canonical re-rendering),
// which is the acceptance property the binary codec is specified against.
func FuzzTextRoundTrip(f *testing.F) {
	f.Add("R 0x40\nW 0x80\n")
	f.Add("r 40\r\nw 0XFF\r\n")
	f.Add("# comment\n\nR 0xffffffffffffffff\n")
	f.Add("W 0x1ffffffffffffffff\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<18 {
			return
		}
		parsed, err := ReadAll(NewTextReader(bytes.NewReader([]byte(text))))
		if err != nil {
			return
		}
		var canon bytes.Buffer
		if err := WriteText(&canon, parsed); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadAll(NewBinaryReader(bytes.NewReader(EncodeBinary(parsed))))
		if err != nil {
			t.Fatalf("binary round trip of parsed text failed: %v", err)
		}
		var back bytes.Buffer
		if err := WriteText(&back, decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon.Bytes(), back.Bytes()) {
			t.Fatal("text -> binary -> text not byte-identical")
		}
	})
}

func mustStream(f *testing.F) Generator {
	g, err := NewStream(Region{Base: 0, Size: 1 << 20}, 3, 0.25, 99)
	if err != nil {
		f.Fatal(err)
	}
	return g
}
