package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxAddrHexDigits caps the address field of the text format: a uint64 is
// at most 16 hex digits, so anything longer is rejected before ParseUint
// even looks at it, with a line-numbered error instead of a bare ErrRange.
const MaxAddrHexDigits = 16

// TextReader parses the textual trace format: one "R 0xADDR" or
// "W 0xADDR" per line. It accepts lower-case kinds, bare or 0x/0X-prefixed
// hex addresses, trailing \r (CRLF traces from Windows tools), comment
// lines starting with '#', and blank lines. Errors carry the physical
// line number, counting every line including comments and blanks.
type TextReader struct {
	sc   *bufio.Scanner
	line int
}

// NewTextReader wraps r in a text-format parser. Lines up to 1 MiB are
// accepted (matching the historical llcsim scanner limits).
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &TextReader{sc: sc}
}

// Next implements Reader.
func (t *TextReader) Next() (Access, error) {
	for t.sc.Scan() {
		t.line++
		line := strings.TrimSuffix(t.sc.Text(), "\r")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return Access{}, fmt.Errorf("trace: line %d: want \"R|W 0xADDR\", got %q", t.line, line)
		}
		var write bool
		switch fields[0] {
		case "R", "r":
		case "W", "w":
			write = true
		default:
			return Access{}, fmt.Errorf("trace: line %d: unknown access kind %q", t.line, fields[0])
		}
		hex := fields[1]
		if len(hex) >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X') {
			hex = hex[2:]
		}
		if len(hex) > MaxAddrHexDigits {
			return Access{}, fmt.Errorf("trace: line %d: address %q exceeds %d hex digits (64 bits)", t.line, fields[1], MaxAddrHexDigits)
		}
		addr, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return Access{}, fmt.Errorf("trace: line %d: bad address %q: %w", t.line, fields[1], err)
		}
		return Access{Addr: addr, Write: write}, nil
	}
	if err := t.sc.Err(); err != nil {
		return Access{}, err
	}
	return Access{}, io.EOF
}

// AppendText appends the canonical text rendering of one access
// ("R 0x1a2b\n") to dst. tracegen and llcsim -dump share it so the text
// side of the round-trip is byte-stable.
func AppendText(dst []byte, a Access) []byte {
	if a.Write {
		dst = append(dst, 'W', ' ', '0', 'x')
	} else {
		dst = append(dst, 'R', ' ', '0', 'x')
	}
	dst = strconv.AppendUint(dst, a.Addr, 16)
	return append(dst, '\n')
}

// WriteText writes accesses in the canonical text format.
func WriteText(w io.Writer, accesses []Access) error {
	buf := make([]byte, 0, 16)
	bw := bufio.NewWriter(w)
	for _, a := range accesses {
		buf = AppendText(buf[:0], a)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
