package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// sampleAccesses produces a mixed-pattern trace exercising delta signs,
// kind runs, and large address jumps.
func sampleAccesses(t testing.TB, n int) []Access {
	t.Helper()
	region := Region{Base: 1 << 32, Size: 64 << 20}
	zipf, err := NewZipf(region, 1.3, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewStream(Region{Base: 0, Size: 8 << 20}, 1, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := NewMixture([]Generator{zipf, stream}, []float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Collect(mix, n)
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, DefaultBlockAccesses - 1, DefaultBlockAccesses, DefaultBlockAccesses + 1, 3 * DefaultBlockAccesses} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			in := sampleAccesses(t, n)
			out, err := ReadAll(NewBinaryReader(bytes.NewReader(EncodeBinary(in))))
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(in) {
				t.Fatalf("decoded %d accesses, want %d", len(out), len(in))
			}
			for i := range in {
				if in[i] != out[i] {
					t.Fatalf("access %d: got %+v, want %+v", i, out[i], in[i])
				}
			}
		})
	}
}

func TestBinaryExtremeAddresses(t *testing.T) {
	in := []Access{
		{Addr: 0},
		{Addr: math.MaxUint64, Write: true},
		{Addr: 0, Write: true},
		{Addr: 1 << 63},
		{Addr: (1 << 63) - 1},
	}
	out, err := ReadAll(NewBinaryReader(bytes.NewReader(EncodeBinary(in))))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("access %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestBinaryCanonicalEncoding(t *testing.T) {
	in := sampleAccesses(t, 2*DefaultBlockAccesses+17)
	a, b := EncodeBinary(in), EncodeBinary(in)
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeBinary is not deterministic")
	}
	// A streamed writer closed at the end frames the same bytes.
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, x := range in {
		if err := bw.Write(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, buf.Bytes()) {
		t.Fatal("a streamed BinaryWriter and EncodeBinary disagree")
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	enc := EncodeBinary(nil)
	if string(enc) != binaryMagic {
		t.Fatalf("empty stream = %q, want bare magic", enc)
	}
	out, err := ReadAll(NewBinaryReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d accesses from empty stream", len(out))
	}
}

func TestBinaryCompression(t *testing.T) {
	in := sampleAccesses(t, 50000)
	enc := EncodeBinary(in)
	perAccess := float64(len(enc)) / float64(len(in))
	if perAccess > 6 {
		t.Fatalf("binary encoding uses %.2f bytes/access, want <= 6", perAccess)
	}
}

func TestBinaryCorruption(t *testing.T) {
	in := sampleAccesses(t, 1000)
	enc := EncodeBinary(in)

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("xtrace1\n"), enc[8:]...)
		if _, err := ReadAll(NewBinaryReader(bytes.NewReader(bad))); err == nil {
			t.Fatal("want magic error")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x40
		_, err := ReadAll(NewBinaryReader(bytes.NewReader(bad)))
		if err == nil {
			t.Fatal("want corruption error")
		}
	})
	t.Run("truncated mid-block", func(t *testing.T) {
		bad := enc[:len(enc)-3]
		_, err := ReadAll(NewBinaryReader(bytes.NewReader(bad)))
		if err == nil || err == io.EOF {
			t.Fatalf("want unexpected-EOF corruption error, got %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadAll(NewBinaryReader(bytes.NewReader(enc[:4]))); err == nil {
			t.Fatal("want header error")
		}
	})
}

func TestBinaryReaderErrorSticks(t *testing.T) {
	enc := EncodeBinary(sampleAccesses(t, 10))
	enc[len(enc)-1] ^= 0xff
	br := NewBinaryReader(bytes.NewReader(enc))
	_, err1 := br.Next()
	if err1 == nil {
		t.Fatal("want error from corrupt block")
	}
	if _, err2 := br.Next(); err2 != err1 {
		t.Fatalf("error did not stick: %v then %v", err1, err2)
	}
}

func TestTextRoundTripThroughBinary(t *testing.T) {
	in := sampleAccesses(t, 12345)
	var text bytes.Buffer
	if err := WriteText(&text, in); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadAll(NewTextReader(bytes.NewReader(text.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadAll(NewBinaryReader(bytes.NewReader(EncodeBinary(parsed))))
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := WriteText(&back, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), back.Bytes()) {
		t.Fatal("text -> binary -> text round trip is not byte-identical")
	}
}

func TestNewReaderAutodetect(t *testing.T) {
	in := sampleAccesses(t, 500)

	var text bytes.Buffer
	if err := WriteText(&text, in); err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]byte{
		"text":   text.Bytes(),
		"binary": EncodeBinary(in),
	} {
		out, err := ReadAll(NewReader(bytes.NewReader(stream)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) != len(in) {
			t.Fatalf("%s: decoded %d accesses, want %d", name, len(out), len(in))
		}
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("%s: access %d: got %+v, want %+v", name, i, out[i], in[i])
			}
		}
	}

	if out, err := ReadAll(NewReader(strings.NewReader(""))); err != nil || len(out) != 0 {
		t.Fatalf("empty stream: got %d accesses, err %v", len(out), err)
	}
}

func TestTextReader(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    []Access
		wantErr string
	}{
		{
			name: "canonical",
			in:   "R 0x40\nW 0x80\n",
			want: []Access{{Addr: 0x40}, {Addr: 0x80, Write: true}},
		},
		{
			name: "upper hex prefix",
			in:   "R 0X40\nW 0XFF\n",
			want: []Access{{Addr: 0x40}, {Addr: 0xff, Write: true}},
		},
		{
			name: "crlf line endings",
			in:   "R 0x40\r\nW 0x80\r\n",
			want: []Access{{Addr: 0x40}, {Addr: 0x80, Write: true}},
		},
		{
			name: "lowercase kinds and bare hex",
			in:   "r 40\nw 80\n",
			want: []Access{{Addr: 0x40}, {Addr: 0x80, Write: true}},
		},
		{
			name: "comments blanks and padding",
			in:   "# header\n\n  R 0x40  \n\t\nW 0x80\n",
			want: []Access{{Addr: 0x40}, {Addr: 0x80, Write: true}},
		},
		{
			name: "max width address",
			in:   "R 0xffffffffffffffff\n",
			want: []Access{{Addr: math.MaxUint64}},
		},
		{
			name:    "oversized address",
			in:      "R 0x40\n# pad\nW 0x1ffffffffffffffff\n",
			wantErr: `line 3: address "0x1ffffffffffffffff" exceeds 16 hex digits`,
		},
		{
			name:    "unknown kind",
			in:      "R 0x40\nX 0x80\n",
			wantErr: `line 2: unknown access kind "X"`,
		},
		{
			name:    "field count",
			in:      "R 0x40 extra\n",
			wantErr: "line 1: want",
		},
		{
			name:    "bad hex",
			in:      "\n\nR 0xzz\n",
			wantErr: `line 3: bad address "0xzz"`,
		},
		{
			name:    "empty address after prefix",
			in:      "R 0x\n",
			wantErr: "line 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadAll(NewTextReader(strings.NewReader(tc.in)))
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got nil", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parsed %d accesses, want %d", len(got), len(tc.want))
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("access %d: got %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
