package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"coldtall/internal/trace"
)

// windowStream returns a fresh copy of the contract tests' generator: a
// Zipf stream whose length (5 chunks and a tail) puts the warmup cut
// inside a canonical block.
func windowStream(t *testing.T) trace.Generator {
	t.Helper()
	g, err := trace.NewZipf(trace.Region{Base: 1 << 30, Size: 16 << 20}, 1.2, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const windowN = 5*windowChunk + 777

// bareWindow is the reference the window must reproduce: a bare
// hierarchy fed access by access, snapshotted at the warmup cut.
func bareWindow(t *testing.T, in []trace.Access) HierarchyStats {
	t.Helper()
	h, err := NewHierarchy(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	var atWarm HierarchyStats
	for i, a := range in {
		if i == len(in)/4 {
			atWarm = h.Snapshot()
		}
		h.Access(a)
	}
	return h.Snapshot().Sub(atWarm)
}

// oneBlockCTrace frames all of in as a single .ctrace block, the
// non-canonical framing llcsim accepts up to 2^20 accesses per block.
func oneBlockCTrace(in []trace.Access) []byte {
	var payload []byte
	runs := 1
	for i := 1; i < len(in); i++ {
		if in[i].Write != in[i-1].Write {
			runs++
		}
	}
	payload = binary.AppendUvarint(payload, uint64(runs))
	if in[0].Write {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	run := uint64(1)
	for i := 1; i < len(in); i++ {
		if in[i].Write != in[i-1].Write {
			payload = binary.AppendUvarint(payload, run)
			run = 0
		}
		run++
	}
	payload = binary.AppendUvarint(payload, run)
	prev := uint64(0)
	for _, a := range in {
		payload = binary.AppendVarint(payload, int64(a.Addr-prev))
		prev = a.Addr
	}
	out := append([]byte(nil), trace.EncodeBinary(nil)...) // the magic alone
	out = binary.AppendUvarint(out, uint64(len(in)))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestWindowContract pins the measurement window: the feeder hands out
// exactly what is asked in stream order from one buffer; the window cuts
// its warmup inside a block, reports monotone progress in chunks of at
// most 64Ki ending at n, and counts what a bare hierarchy counts; every
// source of the same stream gives the same window; a short source and a
// cancelled context are errors.
func TestWindowContract(t *testing.T) {
	in := trace.Collect(windowStream(t), windowN)
	canonical := trace.EncodeBinary(in)
	warm := Warmup(windowN)
	if warm%trace.DefaultBlockAccesses == 0 {
		t.Fatalf("test is vacuous: the warmup cut %d falls on a block boundary", warm)
	}

	t.Run("feeder", func(t *testing.T) {
		f := newFeeder(FromCanonical(canonical), windowChunk)
		buf := &f.buf[0]
		var got []trace.Access
		// Window's requests: the warmup quarter, then the rest.
		wants := []int{windowChunk, warm - windowChunk}
		for left := len(in) - warm; left > 0; left -= windowChunk {
			wants = append(wants, min(left, windowChunk))
		}
		for _, max := range wants {
			chunk, err := f.next(max)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(max, len(in)-len(got)); len(chunk) != want {
				t.Fatalf("chunk of %d accesses, want %d", len(chunk), want)
			}
			got = append(got, chunk...)
		}
		if chunk, err := f.next(windowChunk); err != nil || len(chunk) != 0 {
			t.Fatalf("past the end: %d accesses, %v", len(chunk), err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatal("the feeder did not hand out the stream in order")
		}
		if &f.buf[0] != buf {
			t.Fatal("the feeder reallocated its buffer")
		}
	})

	want := bareWindow(t, in)
	t.Run("progress", func(t *testing.T) {
		r, err := NewReplayer(TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		var progress []uint64
		got, err := r.Window(context.Background(), FromCanonical(canonical), windowN, func(done uint64) {
			progress = append(progress, done)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window diverges from the bare hierarchy:\ngot  %+v\nwant %+v", got, want)
		}
		var wantProgress []uint64
		done := 0
		for _, end := range []int{warm, windowN} {
			for done < end {
				done += min(windowChunk, end-done)
				wantProgress = append(wantProgress, uint64(done))
			}
		}
		if !reflect.DeepEqual(progress, wantProgress) {
			t.Fatalf("progress %v, want %v (64Ki chunks, a cut at the warmup %d)", progress, wantProgress, warm)
		}
	})

	t.Run("sources", func(t *testing.T) {
		var text bytes.Buffer
		if err := trace.WriteText(&text, in); err != nil {
			t.Fatal(err)
		}
		sources := map[string]Source{
			"generator": FromGenerator(windowStream(t)),
			"text":      fromReader(trace.NewReader(&text)),
			"one block": fromReader(trace.NewReader(bytes.NewReader(oneBlockCTrace(in)))),
		}
		for name, src := range sources {
			r, err := NewReplayer(TableIConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Window(context.Background(), src, windowN, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s source: window diverges from the canonical bytes:\ngot  %+v\nwant %+v", name, got, want)
			}
		}
	})

	t.Run("observer", func(t *testing.T) {
		// An observer takes the window to 64Ki chunks without progress;
		// it must see the whole stream in order, the counters unchanged.
		r, err := NewReplayer(TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		var seen []trace.Access
		r.SetObserver(func(a trace.Access) { seen = append(seen, a) })
		got, err := r.Window(context.Background(), FromGenerator(windowStream(t)), windowN, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("observed window diverges from the bare hierarchy:\ngot  %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(seen, in) {
			t.Fatalf("the observer saw %d accesses, not the window's %d in order", len(seen), len(in))
		}
	})

	t.Run("short source", func(t *testing.T) {
		for _, have := range []int{warm / 2, windowN - 1} {
			r, err := NewReplayer(TableIConfig())
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Window(context.Background(), FromCanonical(trace.EncodeBinary(in[:have])), windowN, nil)
			var short *ShortSourceError
			if !errors.As(err, &short) || short.Got != have || short.Want != windowN {
				t.Fatalf("%d of %d accesses: err = %v, want a ShortSourceError", have, windowN, err)
			}
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		r, err := NewReplayer(TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r.Window(ctx, FromCanonical(canonical), windowN, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := r.Snapshot().Accesses; n != 0 {
			t.Fatalf("a cancelled window replayed %d accesses", n)
		}
	})
}
