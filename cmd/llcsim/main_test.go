package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coldtall/internal/sim"
	"coldtall/internal/trace"
)

func TestReplayParsesTraceFormat(t *testing.T) {
	h, err := sim.NewHierarchy(sim.TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("R 0x1000\nW 0x2000\n# comment\n\nr 0x3000\nw 0x4000\n")
	n, err := replay(h, in)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("replayed %d accesses, want 4", n)
	}
	s := h.Snapshot().Levels[0]
	if s.Reads != 2 || s.Writes != 2 {
		t.Errorf("L1 saw %d reads %d writes, want 2/2", s.Reads, s.Writes)
	}
}

func TestReplayRejectsMalformedLines(t *testing.T) {
	h, _ := sim.NewHierarchy(sim.TableIConfig())
	cases := []string{
		"R\n",           // missing address
		"X 0x10\n",      // unknown kind
		"R 0xzz\n",      // bad hex
		"R 0x1 extra\n", // too many fields
	}
	for _, in := range cases {
		if _, err := replay(h, strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", strings.TrimSpace(in))
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	in := strings.NewReader("R 0x1000\nW 0x1000\nR 0x200000\n")
	var out strings.Builder
	if err := run([]string{"-copies", "8", "-bench", "leela"}, in, &out); err != nil {
		t.Fatal(err)
	}
	o := out.String()
	for _, want := range []string{"L1D", "LLC", "memory", "extrapolated", "reads/s"} {
		if !strings.Contains(o, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestRunWithoutBenchSkipsExtrapolation(t *testing.T) {
	in := strings.NewReader("R 0x1000\n")
	var out strings.Builder
	if err := run(nil, in, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "extrapolated") {
		t.Error("extrapolation should require -bench")
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	in := strings.NewReader("R 0x1000\n")
	var out strings.Builder
	if err := run([]string{"-bench", "doom"}, in, &out); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestRunRejectsMissingTraceFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-trace", "/nonexistent/file"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing trace file should fail")
	}
}

// TestReplayParserHardening is the table-driven parser contract: CRLF
// line endings, 0X prefixes, and lowercase kinds are accepted; oversized
// addresses and malformed lines are rejected with line-numbered errors.
func TestReplayParserHardening(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantN   int
		wantErr string
	}{
		{"upper hex prefix", "R 0X1000\nW 0X2000\n", 2, ""},
		{"crlf endings", "R 0x1000\r\nW 0x2000\r\n", 2, ""},
		{"bare hex", "R 1000\n", 1, ""},
		{"max width address", "R 0x" + strings.Repeat("f", 16) + "\n", 1, ""},
		{"oversized address", "R 0x1000\nR 0x2000\nR 0x1" + strings.Repeat("0", 16) + "\n", 2, "line 3"},
		{"oversized via zeros", "R 0x" + strings.Repeat("f", 17) + "\n", 0, "16 hex digits"},
		{"missing address", "R\n", 0, "line 1"},
		{"unknown kind", "X 0x10\n", 0, "unknown access kind"},
		{"bad hex", "R 0xzz\n", 0, "line 1"},
		{"comment lines count", "# one\n# two\nR 0xzz\n", 0, "line 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := sim.NewHierarchy(sim.TableIConfig())
			if err != nil {
				t.Fatal(err)
			}
			n, err := replay(h, strings.NewReader(tc.in))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
			if n != tc.wantN {
				t.Errorf("replayed %d accesses, want %d", n, tc.wantN)
			}
		})
	}
}

// TestRunBinaryAutodetect: the same accesses as .ctrace bytes produce the
// same per-level table as the text form.
func TestRunBinaryAutodetect(t *testing.T) {
	accesses := []trace.Access{
		{Addr: 0x1000}, {Addr: 0x1000, Write: true}, {Addr: 0x200000}, {Addr: 0x340000},
	}
	var text bytes.Buffer
	if err := trace.WriteText(&text, accesses); err != nil {
		t.Fatal(err)
	}
	var fromText, fromBinary strings.Builder
	if err := run(nil, &text, &fromText); err != nil {
		t.Fatal(err)
	}
	if err := run(nil, bytes.NewReader(trace.EncodeBinary(accesses)), &fromBinary); err != nil {
		t.Fatal(err)
	}
	if fromText.String() != fromBinary.String() {
		t.Errorf("text and binary replays diverge:\n%s\nvs\n%s", fromText.String(), fromBinary.String())
	}
}

// TestRunDumpWritesCanonicalBinary: -dump converts text to the canonical
// .ctrace encoding while simulating.
func TestRunDumpWritesCanonicalBinary(t *testing.T) {
	accesses := []trace.Access{{Addr: 0x40}, {Addr: 0x80, Write: true}, {Addr: 0xc0}}
	var text bytes.Buffer
	if err := trace.WriteText(&text, accesses); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.ctrace")
	var out strings.Builder
	if err := run([]string{"-dump", path}, &text, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, trace.EncodeBinary(accesses)) {
		t.Error("dumped bytes are not the canonical encoding")
	}
	if !strings.Contains(out.String(), "3 accesses") {
		t.Errorf("simulation output missing access count: %s", out.String())
	}
}
