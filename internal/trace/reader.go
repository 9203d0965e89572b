package trace

import (
	"bufio"
	"bytes"
	"io"
)

// Reader streams accesses from a serialized trace. Next returns io.EOF
// after the final access of a well-formed stream; any other error marks
// a malformed input and is positioned (line number for text, block index
// for binary).
type Reader interface {
	Next() (Access, error)
}

// sniffSize is the buffer the format sniffer reads ahead into; it must be
// at least len(binaryMagic).
const sniffSize = 32 * 1024

// NewReader wraps r in the appropriate decoder by sniffing the stream
// prefix: a .ctrace magic header selects the binary decoder, anything
// else (including an empty stream) the text parser. This is what lets
// llcsim replay either format from the same -trace flag or stdin pipe.
func NewReader(r io.Reader) Reader {
	br := bufio.NewReaderSize(r, sniffSize)
	prefix, _ := br.Peek(len(binaryMagic))
	if bytes.Equal(prefix, []byte(binaryMagic)) {
		return NewBinaryReader(br)
	}
	return NewTextReader(br)
}

// ReadAll drains a Reader into a slice. The caller bounds the input (the
// server does so via request body limits, the CLI via file size).
func ReadAll(r Reader) ([]Access, error) {
	var out []Access
	for {
		a, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}
