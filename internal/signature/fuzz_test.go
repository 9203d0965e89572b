package signature_test

import (
	"bytes"
	"context"
	"testing"

	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/trace"
)

// FuzzEncodingDeterminism extends the trace codec's FuzzBinaryDecode
// corpus shape to the signature layer: any byte stream the binary trace
// decoder accepts must produce byte-identical canonical signature
// encodings whether the stream is accumulated in memory, re-decoded from
// its text rendering, or observed during a sim.Replayer replay — plus a
// Decode(Encode) fixed point.
func FuzzEncodingDeterminism(f *testing.F) {
	f.Add(trace.EncodeBinary(nil))
	f.Add(trace.EncodeBinary([]trace.Access{{Addr: 0x40}, {Addr: 0x80, Write: true}}))
	g, err := trace.NewStream(trace.Region{Base: 0, Size: 1 << 20}, 3, 0.25, 99)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trace.EncodeBinary(trace.Collect(g, 300)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		accesses, err := trace.ReadAll(trace.NewBinaryReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		acc := signature.NewAccumulator()
		for _, a := range accesses {
			acc.Observe(a)
		}
		ref := acc.Signature()
		enc := ref.Encode()

		back, err := signature.Decode(enc)
		if err != nil {
			t.Fatalf("decoding a canonical encoding failed: %v", err)
		}
		if back != ref {
			t.Fatal("Decode(Encode) is not the identity")
		}

		var text bytes.Buffer
		if err := trace.WriteText(&text, accesses); err != nil {
			t.Fatal(err)
		}
		reread, err := trace.ReadAll(trace.NewTextReader(bytes.NewReader(text.Bytes())))
		if err != nil {
			t.Fatalf("re-reading text rendering failed: %v", err)
		}
		tacc := signature.NewAccumulator()
		for _, a := range reread {
			tacc.Observe(a)
		}
		if !bytes.Equal(tacc.Signature().Encode(), enc) {
			t.Fatal("text-decoded signature encoding differs")
		}

		eng, err := sim.NewReplayer(sim.TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		sacc := signature.NewAccumulator()
		eng.SetObserver(sacc.Observe)
		if err := eng.Replay(context.Background(), accesses); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sacc.Signature().Encode(), enc) {
			t.Fatal("replay-observed signature encoding differs")
		}
	})
}
