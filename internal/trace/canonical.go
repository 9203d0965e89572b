package trace

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// CanonicalBinary reports whether data is byte for byte the EncodeBinary
// output of the accesses it decodes to and, if so, how many accesses that
// is. It walks the frames and scans the varints without decoding a single
// address. The argument: the decoder is the only reader of the format,
// and the encoder's choices are all forced — the magic, the block split
// (DefaultBlockAccesses per block, a last block of 1 to
// DefaultBlockAccesses), the run boundaries (every kind change), and a
// minimal varint for every integer. A stream whose framing matches that
// split, whose every varint is minimal and in range, whose runs and
// deltas exactly fill their blocks, and whose every CRC matches therefore
// decodes cleanly and re-encodes to itself; anything else either fails to
// decode or re-encodes to other bytes. The empty stream (magic only) is
// canonical with zero accesses.
func CanonicalBinary(data []byte) (accesses int, ok bool) {
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return 0, false
	}
	o := len(binaryMagic)
	for o < len(data) {
		count, n := minimalUvarint(data[o:])
		if n == 0 || count == 0 || count > DefaultBlockAccesses {
			return 0, false
		}
		o += n
		size, n := minimalUvarint(data[o:])
		if n == 0 || size == 0 || size > uint64(len(data)-o-n) {
			return 0, false
		}
		o += n
		payload := data[o : o+int(size)]
		o += int(size)
		if len(data)-o < 4 || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[o:]) {
			return 0, false
		}
		o += 4
		// Only the last block may be short: the encoder frames a block
		// each time DefaultBlockAccesses accesses are pending.
		if count != DefaultBlockAccesses && o != len(data) {
			return 0, false
		}
		if !canonicalPayload(payload, int(count)) {
			return 0, false
		}
		accesses += int(count)
	}
	return accesses, true
}

// canonicalPayload checks one block payload against appendBlockPayload's
// layout for count accesses: a minimal run count in [1,count], a 0/1 kind
// byte, minimal non-zero run lengths summing to count, then exactly count
// minimal address deltas that end where the payload ends.
func canonicalPayload(p []byte, count int) bool {
	runs, n := minimalUvarint(p)
	if n == 0 || runs == 0 || runs > uint64(count) {
		return false
	}
	o := n
	if o >= len(p) || p[o] > 1 {
		return false
	}
	o++
	left := uint64(count)
	for r := uint64(0); r < runs; r++ {
		run, n := minimalUvarint(p[o:])
		if n == 0 || run == 0 || run > left {
			return false
		}
		left -= run
		o += n
	}
	return left == 0 && minimalVarints(p[o:], count)
}

// minimalUvarint decodes one uvarint and returns its byte length, or 0
// when it is truncated, overflows 64 bits, or is padded (a multi-byte
// encoding ending in a zero byte, which PutUvarint never writes).
func minimalUvarint(p []byte) (uint64, int) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, 0
	}
	return v, n
}

// minimalVarints reports whether p holds exactly want varints, each
// minimal and within 64 bits, with no trailing bytes. It only classifies
// bytes — a varint ends at each byte below 0x80 — eight at a time, so it
// runs far faster than decoding the deltas.
func minimalVarints(p []byte, want int) bool {
	const hi = 0x8080808080808080 // bit 7 of every byte
	ends := 0                     // varints ended so far
	run := 0                      // continuation bytes of the varint in progress
	for ; len(p) >= 8; p = p[8:] {
		w := binary.LittleEndian.Uint64(p)
		cont := w & hi
		// Exact zero-byte flags: bit 7 of (low seven bits + 0x7f) | w is
		// set in every byte but a zero one, and no sum carries out of its
		// byte.
		zero := ^((w&^hi + ^uint64(hi)) | w) & hi
		prev := cont<<8 | uint64(min(run, 1))<<7 // the byte before each is a continuation
		if zero&prev != 0 {
			return false // padded
		}
		term := ^cont & hi
		if term == 0 {
			if run += 8; run >= binary.MaxVarintLen64 {
				return false
			}
			continue
		}
		ends += bits.OnesCount64(term)
		// Only the first varint ending in this word can have started in
		// an earlier one and so be long enough to overflow.
		if first := bits.TrailingZeros64(term) / 8; run+first >= binary.MaxVarintLen64-1 &&
			(run+first >= binary.MaxVarintLen64 || p[first] > 1) {
			return false
		}
		run = bits.LeadingZeros64(term) / 8
	}
	for _, b := range p {
		if b >= 0x80 {
			if run++; run == binary.MaxVarintLen64 {
				return false // an eleventh byte would be needed
			}
			continue
		}
		if run > 0 && b == 0 {
			return false // padded
		}
		if run == binary.MaxVarintLen64-1 && b > 1 {
			return false // overflows 64 bits
		}
		ends++
		run = 0
	}
	return run == 0 && ends == want
}
