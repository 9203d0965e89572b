package main

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"coldtall/internal/sim"
	"coldtall/internal/trace"
)

// FuzzReplay hardens the trace parser and llcsim's replay loop: arbitrary
// input must either replay cleanly or return an error — never panic, and
// never mis-count — and whatever decodes (text or .ctrace) must count
// through the chunked Replayer exactly what a bare hierarchy counts.
func FuzzReplay(f *testing.F) {
	f.Add("R 0x1000\nW 0x2000\n")
	f.Add("# comment\n\nr 0x0\n")
	f.Add("X 0x10\n")
	f.Add("R zz\n")
	f.Add("R 0x1 tail\n")
	f.Add(strings.Repeat("W 0xffffffffffff0\n", 3))
	f.Add("R 0X1000\r\nW 0X2000\r\n")               // 0X prefix + CRLF
	f.Add("R 0x" + strings.Repeat("f", 16) + "\n")  // max-width address
	f.Add("R 0x1" + strings.Repeat("0", 16) + "\n") // 17 digits: rejected
	f.Add("# comment\r\n\r\nw ffffffffffffffff\n")  // bare max hex
	f.Add(string(trace.EncodeBinary([]trace.Access{{Addr: 0x40}, {Addr: 0x80, Write: true}, {Addr: 0x40}})))
	f.Fuzz(func(t *testing.T, input string) {
		h, err := sim.NewHierarchy(sim.TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		if n, err := replay(h, strings.NewReader(input)); err == nil {
			if n < 0 {
				t.Fatalf("negative access count %d", n)
			}
			if got := h.Snapshot().Accesses; got != uint64(n) {
				t.Fatalf("replayed %d accesses but L1 saw %d", n, got)
			}
		}

		accesses, err := trace.ReadAll(trace.NewReader(strings.NewReader(input)))
		if err != nil {
			return // malformed input is rejected, fine
		}
		ref, err := sim.NewHierarchy(sim.TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range accesses {
			ref.Access(a)
		}
		eng, err := sim.NewReplayer(sim.TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		n, err := eng.ReplayReader(context.Background(), trace.NewReader(strings.NewReader(input)), 0, nil)
		if err != nil || n != uint64(len(accesses)) {
			t.Fatalf("ReplayReader: %d accesses, %v; want %d decoded", n, err, len(accesses))
		}
		if got, want := eng.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("ReplayReader counts diverge from a bare hierarchy:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
