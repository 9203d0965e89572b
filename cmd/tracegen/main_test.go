package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"coldtall/internal/trace"
)

func TestParseSize(t *testing.T) {
	cases := map[string]uint64{
		"4096":   4096,
		"512KiB": 512 << 10,
		"64MiB":  64 << 20,
		"2GiB":   2 << 30,
		" 8 KiB": 8 << 10, // surrounding whitespace is tolerated
		"1TiB":   0,       // unknown suffix leaves a non-numeric string
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if want == 0 {
			if err == nil {
				t.Errorf("parseSize(%q) should fail", in)
			}
			continue
		}
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if _, err := parseSize("abcMiB"); err == nil {
		t.Error("non-numeric size should fail")
	}
}

func TestRunListsProfiles(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	if err := run([]string{"-bench", "doom", "-n", "1"}, io.Discard); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestRunRejectsUnknownPattern(t *testing.T) {
	if err := run([]string{"-pattern", "spiral", "-n", "1"}, io.Discard); err == nil {
		t.Error("unknown pattern should fail")
	}
}

func TestRunEmitsBenchTrace(t *testing.T) {
	if err := run([]string{"-bench", "leela", "-n", "10"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunEmitsRawPatterns(t *testing.T) {
	for _, p := range []string{"stream", "chase", "zipf"} {
		if err := run([]string{"-pattern", p, "-ws", "1MiB", "-n", "5"}, io.Discard); err != nil {
			t.Errorf("pattern %s: %v", p, err)
		}
	}
}

func TestRunEmitsParsableLines(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-pattern", "chain", "-ws", "1MiB", "-n", "20"}, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("emitted %d lines, want 20", len(lines))
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 2 || (fields[0] != "R" && fields[0] != "W") || !strings.HasPrefix(fields[1], "0x") {
			t.Fatalf("malformed line %q", line)
		}
	}
}

// TestBinaryFormatMatchesText: -format binary emits the canonical .ctrace
// encoding of exactly the accesses the text mode prints.
func TestBinaryFormatMatchesText(t *testing.T) {
	var text, binary bytes.Buffer
	if err := run([]string{"-bench", "mcf", "-n", "2000", "-seed", "3"}, &text); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "mcf", "-n", "2000", "-seed", "3", "-format", "binary"}, &binary); err != nil {
		t.Fatal(err)
	}
	fromText, err := trace.ReadAll(trace.NewReader(bytes.NewReader(text.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := trace.ReadAll(trace.NewReader(bytes.NewReader(binary.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText) != 2000 || len(fromText) != len(fromBinary) {
		t.Fatalf("decoded %d text / %d binary accesses", len(fromText), len(fromBinary))
	}
	for i := range fromText {
		if fromText[i] != fromBinary[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, fromText[i], fromBinary[i])
		}
	}
	if !bytes.Equal(binary.Bytes(), trace.EncodeBinary(fromText)) {
		t.Error("-format binary output is not the canonical encoding")
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "10", "-format", "xml"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestPatternStreamsPinned: each -pattern emits the stream of its trace
// constructor over a working set based at 1 GiB, the mapping uploads
// share through ingest.GeneratorSpec.
func TestPatternStreamsPinned(t *testing.T) {
	region := trace.Region{Base: 1 << 30, Size: 1 << 20}
	want := map[string]func() (trace.Generator, error){
		"stream": func() (trace.Generator, error) { return trace.NewStream(region, 1, 0.3, 5) },
		"chase":  func() (trace.Generator, error) { return trace.NewPointerChase(region, 0.3, 5) },
		"chain":  func() (trace.Generator, error) { return trace.NewChain(region, 0.3, 5) },
		"zipf":   func() (trace.Generator, error) { return trace.NewZipf(region, 1.4, 0.3, 5) },
	}
	for pattern, mk := range want {
		var out bytes.Buffer
		if err := run([]string{"-pattern", pattern, "-ws", "1MiB", "-n", "500", "-seed", "5", "-format", "binary"}, &out); err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), trace.EncodeBinary(trace.Collect(g, 500))) {
			t.Errorf("-pattern %s diverged from its trace constructor", pattern)
		}
	}
}
