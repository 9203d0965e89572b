package sim

import (
	"bytes"
	"context"
	"io"
	"testing"

	"coldtall/internal/trace"
)

// benchTrace serializes one fixed 200k-access stream both ways so every
// benchmark replays identical work.
func benchTrace(b *testing.B) (text, binary []byte, n int) {
	accesses := testAccesses(b, 200000)
	var t bytes.Buffer
	if err := trace.WriteText(&t, accesses); err != nil {
		b.Fatal(err)
	}
	return t.Bytes(), trace.EncodeBinary(accesses), len(accesses)
}

// reportAccessRate turns ns/op into the accesses/sec figure EXPERIMENTS.md
// tabulates.
func reportAccessRate(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkReplayText is the baseline: parse the textual trace line by
// line and feed a serial hierarchy.
func BenchmarkReplayText(b *testing.B) {
	text, _, n := benchTrace(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewReplayer(TableIConfig())
		if err != nil {
			b.Fatal(err)
		}
		got, err := s.ReplayReader(context.Background(), trace.NewTextReader(bytes.NewReader(text)), 0, nil)
		if err != nil || got != uint64(n) {
			b.Fatalf("replayed %d accesses, err %v", got, err)
		}
	}
	reportAccessRate(b, n)
}

// BenchmarkReplayBinary swaps the line parser for the .ctrace decoder,
// still simulating serially.
func BenchmarkReplayBinary(b *testing.B) {
	_, bin, n := benchTrace(b)
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewReplayer(TableIConfig())
		if err != nil {
			b.Fatal(err)
		}
		got, err := s.ReplayReader(context.Background(), trace.NewBinaryReader(bytes.NewReader(bin)), 0, nil)
		if err != nil || got != uint64(n) {
			b.Fatalf("replayed %d accesses, err %v", got, err)
		}
	}
	reportAccessRate(b, n)
}

// BenchmarkDecodeText and BenchmarkDecodeBinary isolate the codecs from
// simulation cost: this pair is where the >= 10x format speedup shows,
// since the cache model dominates end-to-end replay time.
func BenchmarkDecodeText(b *testing.B) {
	text, _, n := benchTrace(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drain(b, trace.NewTextReader(bytes.NewReader(text))); got != n {
			b.Fatalf("decoded %d accesses, want %d", got, n)
		}
	}
	reportAccessRate(b, n)
}

func BenchmarkDecodeBinary(b *testing.B) {
	_, bin, n := benchTrace(b)
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Consume block-wise, the way the replay engine does.
		br := trace.NewBinaryReader(bytes.NewReader(bin))
		got := 0
		for {
			block, err := br.ReadBlock()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got += len(block)
		}
		if got != n {
			b.Fatalf("decoded %d accesses, want %d", got, n)
		}
	}
	reportAccessRate(b, n)
}

func drain(b *testing.B, r trace.Reader) int {
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			b.Fatal(err)
		}
		n++
	}
}
