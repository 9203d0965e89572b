//go:build unix

package ingest

import (
	"context"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"coldtall/internal/signature"
	"coldtall/internal/store"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// benchUpload is one .ctrace upload of a BenchmarkIngestRun round.
type benchUpload struct {
	suffix string
	data   []byte
}

// benchRound encodes one round of uploads: per class a canonical trace,
// its byte-identical re-upload, and a near-duplicate drawn from the same
// generator under another seed — a read-heavy zipf (1M accesses) whose
// hot set fits the LLC, a write-heavy stream (512k) over 16x the LLC, and
// a pointer chase (512k) over 4x the LLC.
func benchRound(b *testing.B) []benchUpload {
	b.Helper()
	classes := []struct {
		name     string
		accesses int
		gen      func(seed int64) (trace.Generator, error)
	}{
		{"zipf", 1 << 20, func(seed int64) (trace.Generator, error) {
			return trace.NewZipf(trace.Region{Base: 1 << 30, Size: 8 << 20}, 1.15, 0.075, seed)
		}},
		{"stream", 1 << 19, func(seed int64) (trace.Generator, error) {
			return trace.NewStream(trace.Region{Base: 1 << 30, Size: 256 << 20}, 1, 0.7, seed)
		}},
		{"chase", 1 << 19, func(seed int64) (trace.Generator, error) {
			return trace.NewPointerChase(trace.Region{Base: 1 << 30, Size: 64 << 20}, 0.15, seed)
		}},
	}
	var round []benchUpload
	for _, c := range classes {
		var enc [2][]byte
		for i := range enc {
			g, err := c.gen(int64(11 + i))
			if err != nil {
				b.Fatal(err)
			}
			enc[i] = trace.EncodeBinary(trace.Collect(g, c.accesses))
		}
		round = append(round,
			benchUpload{c.name, enc[0]},
			benchUpload{c.name + "-exact", enc[0]},
			benchUpload{c.name + "-near", enc[1]})
	}
	return round
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkIngestRun ingests one round of nine .ctrace uploads per
// iteration into a fresh registry and signature index over one store, as
// perfbench's ingest_replay does, and reports CPU milliseconds per upload.
func BenchmarkIngestRun(b *testing.B) {
	round := benchRound(b)
	st, err := store.Open(filepath.Join(b.TempDir(), "store"), store.Options{Version: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := cpuTime(b)
	for i := 0; i < b.N; i++ {
		opts := Options{Workloads: workload.NewRegistry(), Store: st, Sigs: signature.NewIndex()}
		for _, u := range round {
			if _, err := Run(ctx, Spec{Name: fmt.Sprintf("r%d-%s", i, u.suffix), Trace: u.data}, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	cpu := cpuTime(b) - cpu0
	b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N*len(round)), "cpu-ms/upload")
}
