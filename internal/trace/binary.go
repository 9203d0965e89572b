// Binary .ctrace codec.
//
// A .ctrace stream is an 8-byte magic/version header followed by
// self-delimiting blocks:
//
//	"ctrace1\n"                                 magic (the '1' is the version)
//	block*                                      until EOF at a block boundary
//
// Each block frames a CRC-protected payload:
//
//	uvarint count                               accesses in the block (>= 1)
//	uvarint len(payload)
//	payload
//	uint32  crc32-IEEE(payload), little-endian
//
// and the payload encodes kinds as alternating run lengths and addresses
// as zigzag varint deltas (first delta of every block is relative to 0, so
// blocks decode independently — the property the replay's progress
// checkpoints rely on):
//
//	uvarint nRuns
//	byte    firstKind                           0 = read, 1 = write
//	uvarint runLen * nRuns                      kinds alternate run to run
//	zigzag-varint delta * count
//
// Real traces are block-aligned with strong spatial locality, so deltas are
// small: the format averages ~1.5 bytes/access against 9+ for the text form.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// binaryMagic is the stream header; the trailing digit is the format
	// version so future revisions stay sniffable.
	binaryMagic = "ctrace1\n"

	// DefaultBlockAccesses is the encoder's block granularity. It is part
	// of the canonical encoding: EncodeBinary output (and therefore the
	// content address of an ingested trace) is deterministic only because
	// every writer uses the same block size unless explicitly overridden.
	DefaultBlockAccesses = 4096

	// maxBlockAccesses and maxBlockPayload bound decoder allocations so a
	// corrupt or hostile header cannot request gigabytes.
	maxBlockAccesses = 1 << 20
	maxBlockPayload  = 16 << 20
)

// BinaryWriter streams accesses into the .ctrace format. Writes buffer up
// to the block size; Flush (or Close) frames any partial final block.
type BinaryWriter struct {
	w       *bufio.Writer
	pending []Access
	scratch []byte
	started bool
	err     error
}

// NewBinaryWriter creates a streaming encoder with the canonical block
// size.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{
		w:       bufio.NewWriter(w),
		pending: make([]Access, 0, DefaultBlockAccesses),
	}
}

// Write appends one access to the stream.
func (bw *BinaryWriter) Write(a Access) error {
	if bw.err != nil {
		return bw.err
	}
	bw.pending = append(bw.pending, a)
	if len(bw.pending) == cap(bw.pending) {
		bw.err = bw.emit()
	}
	return bw.err
}

// Flush frames any buffered accesses and flushes the underlying writer.
// The stream stays valid for further writes.
func (bw *BinaryWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	if len(bw.pending) > 0 {
		if bw.err = bw.emit(); bw.err != nil {
			return bw.err
		}
	}
	if !bw.started {
		// An empty trace is still a valid stream: magic, zero blocks.
		if bw.err = bw.header(); bw.err != nil {
			return bw.err
		}
	}
	bw.err = bw.w.Flush()
	return bw.err
}

// Close finalizes the stream. It does not close the underlying writer.
func (bw *BinaryWriter) Close() error { return bw.Flush() }

func (bw *BinaryWriter) header() error {
	bw.started = true
	_, err := bw.w.WriteString(binaryMagic)
	return err
}

// emit encodes and frames the pending accesses as one block.
func (bw *BinaryWriter) emit() error {
	if !bw.started {
		if err := bw.header(); err != nil {
			return err
		}
	}
	payload := appendBlockPayload(bw.scratch[:0], bw.pending)
	bw.scratch = payload // keep the grown buffer

	var frame [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(len(bw.pending)))
	n += binary.PutUvarint(frame[n:], uint64(len(payload)))
	if _, err := bw.w.Write(frame[:n]); err != nil {
		return err
	}
	if _, err := bw.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := bw.w.Write(crc[:]); err != nil {
		return err
	}
	bw.pending = bw.pending[:0]
	return nil
}

// appendBlockPayload serializes one block's accesses: kind run lengths,
// then zigzag address deltas (first delta relative to address 0).
func appendBlockPayload(dst []byte, accesses []Access) []byte {
	runs := 1
	for i := 1; i < len(accesses); i++ {
		if accesses[i].Write != accesses[i-1].Write {
			runs++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(runs))
	if accesses[0].Write {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	runLen := uint64(1)
	for i := 1; i < len(accesses); i++ {
		if accesses[i].Write != accesses[i-1].Write {
			dst = binary.AppendUvarint(dst, runLen)
			runLen = 0
		}
		runLen++
	}
	dst = binary.AppendUvarint(dst, runLen)

	prev := uint64(0)
	for _, a := range accesses {
		delta := int64(a.Addr - prev) // two's-complement wrap is intentional
		dst = binary.AppendVarint(dst, delta)
		prev = a.Addr
	}
	return dst
}

// BinaryReader streams accesses out of a .ctrace stream, verifying the
// magic header and every block CRC as it goes.
type BinaryReader struct {
	r       *bufio.Reader
	block   []Access
	pos     int
	blocks  int
	payload []byte
	started bool
	err     error
}

// NewBinaryReader creates a streaming decoder.
func NewBinaryReader(r io.Reader) *BinaryReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64*1024)
	}
	return &BinaryReader{r: br}
}

// Next implements Reader.
func (br *BinaryReader) Next() (Access, error) {
	if br.pos == len(br.block) {
		block, err := br.ReadBlock()
		if err != nil {
			return Access{}, err
		}
		br.block, br.pos = block, 0
	}
	a := br.block[br.pos]
	br.pos++
	return a, nil
}

// ReadBlock decodes the next whole block and returns its accesses. The
// returned slice is reused by the following ReadBlock call. It returns
// io.EOF at a clean end of stream; EOF inside a block surfaces as a
// corruption error. sim.Replayer.ReplayReader consumes the stream
// block-wise, so a replay pays no per-access Next call.
func (br *BinaryReader) ReadBlock() ([]Access, error) {
	block, err := br.readBlock(br.block[:0], maxBlockAccesses)
	if err == nil {
		br.block = block
	}
	return block, err
}

// ReadBlockInto decodes the next whole block straight into dst and
// returns how many accesses it wrote; a block longer than dst is an
// error. A caller that sizes dst for DefaultBlockAccesses thus decodes a
// canonical stream with no copy and no allocation. It returns io.EOF at
// a clean end of stream.
func (br *BinaryReader) ReadBlockInto(dst []Access) (int, error) {
	block, err := br.readBlock(dst[:0], len(dst))
	return len(block), err
}

// readBlock decodes the next block into dst, rejecting blocks of more
// than limit accesses. Errors stick.
func (br *BinaryReader) readBlock(dst []Access, limit int) ([]Access, error) {
	if br.err != nil {
		return nil, br.err
	}
	block, err := br.decodeBlock(dst, limit)
	if err != nil {
		br.err = err
	}
	return block, err
}

func (br *BinaryReader) decodeBlock(dst []Access, limit int) ([]Access, error) {
	if !br.started {
		var magic [len(binaryMagic)]byte
		if _, err := io.ReadFull(br.r, magic[:]); err != nil {
			return nil, fmt.Errorf("trace: not a ctrace stream: %w", err)
		}
		if !bytes.Equal(magic[:], []byte(binaryMagic)) {
			return nil, fmt.Errorf("trace: not a ctrace stream (magic %q)", magic)
		}
		br.started = true
	}
	count, err := binary.ReadUvarint(br.r)
	if err == io.EOF {
		return nil, io.EOF // clean end: the previous block was the last
	}
	if err != nil {
		return nil, fmt.Errorf("trace: block %d: reading count: %w", br.blocks, err)
	}
	if count == 0 || count > uint64(limit) {
		return nil, fmt.Errorf("trace: block %d: access count %d out of range [1,%d]", br.blocks, count, limit)
	}
	payloadLen, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, fmt.Errorf("trace: block %d: reading payload length: %w", br.blocks, eof(err))
	}
	if payloadLen == 0 || payloadLen > maxBlockPayload {
		return nil, fmt.Errorf("trace: block %d: payload length %d out of range [1,%d]", br.blocks, payloadLen, maxBlockPayload)
	}
	if uint64(cap(br.payload)) < payloadLen {
		br.payload = make([]byte, payloadLen)
	}
	payload := br.payload[:payloadLen]
	if _, err := io.ReadFull(br.r, payload); err != nil {
		return nil, fmt.Errorf("trace: block %d: truncated payload: %w", br.blocks, eof(err))
	}
	var crc [4]byte
	if _, err := io.ReadFull(br.r, crc[:]); err != nil {
		return nil, fmt.Errorf("trace: block %d: truncated checksum: %w", br.blocks, eof(err))
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("trace: block %d: checksum mismatch (payload %08x, frame %08x)", br.blocks, got, want)
	}
	block, err := decodeBlockPayload(dst, payload, int(count))
	if err != nil {
		return nil, fmt.Errorf("trace: block %d: %w", br.blocks, err)
	}
	br.blocks++
	return block, nil
}

// eof maps a bare io.EOF to ErrUnexpectedEOF: inside a block, hitting the
// end of the stream is corruption, not completion.
func eof(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeBlockPayload reverses appendBlockPayload into dst.
func decodeBlockPayload(dst []Access, payload []byte, count int) ([]Access, error) {
	runs, o := binary.Uvarint(payload)
	if o <= 0 {
		return nil, fmt.Errorf("bad run count varint")
	}
	if runs == 0 || runs > uint64(count) {
		return nil, fmt.Errorf("run count %d out of range [1,%d]", runs, count)
	}
	if o >= len(payload) {
		return nil, fmt.Errorf("payload truncated before kind byte")
	}
	kind := payload[o]
	if kind > 1 {
		return nil, fmt.Errorf("bad first-kind byte %d", kind)
	}
	o++
	write := kind == 1

	if cap(dst) < count {
		dst = make([]Access, count)
	}
	dst = dst[:count]
	idx := 0
	for r := uint64(0); r < runs; r++ {
		runLen, n := binary.Uvarint(payload[o:])
		if n <= 0 {
			return nil, fmt.Errorf("bad run length varint (run %d)", r)
		}
		o += n
		if runLen == 0 || runLen > uint64(count-idx) {
			return nil, fmt.Errorf("run %d length %d overflows block of %d", r, runLen, count)
		}
		for j := uint64(0); j < runLen; j++ {
			dst[idx].Write = write
			idx++
		}
		write = !write
	}
	if idx != count {
		return nil, fmt.Errorf("runs cover %d of %d accesses", idx, count)
	}

	// The delta loop is the decode hot path (one varint per access), so
	// the varint reader is inlined by hand rather than paying
	// encoding/binary's per-call slicing; this is what holds the >= 10x
	// margin over the text parser.
	prev := uint64(0)
	for i := 0; i < count; i++ {
		var u uint64
		var shift uint
		j := o
		for {
			if j >= len(payload) {
				return nil, fmt.Errorf("bad address delta varint (access %d)", i)
			}
			b := payload[j]
			j++
			if b < 0x80 {
				if shift == 63 && b > 1 {
					return nil, fmt.Errorf("address delta overflows 64 bits (access %d)", i)
				}
				u |= uint64(b) << shift
				break
			}
			u |= uint64(b&0x7f) << shift
			shift += 7
			if shift >= 64 {
				return nil, fmt.Errorf("address delta overflows 64 bits (access %d)", i)
			}
		}
		o = j
		delta := int64(u >> 1) // zigzag decode
		if u&1 != 0 {
			delta = ^delta
		}
		prev += uint64(delta)
		dst[i].Addr = prev
	}
	if o != len(payload) {
		return nil, fmt.Errorf("%d trailing payload bytes", len(payload)-o)
	}
	return dst, nil
}

// EncodeBinary returns the canonical serialized form of a trace. Because
// the block size is fixed, the bytes — and therefore the sha256 content
// address the store files ingested traces under — are deterministic for a
// given access sequence.
func EncodeBinary(accesses []Access) []byte {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, a := range accesses {
		bw.Write(a)
	}
	bw.Close() // cannot fail against a bytes.Buffer
	return buf.Bytes()
}
