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
	"coldtall/internal/workload"
)

// benchUpload is one .ctrace upload of a BenchmarkIngestRun round.
type benchUpload struct {
	suffix string
	data   []byte
}

// benchRound encodes one round of uploads: per benchClasses entry a
// canonical trace, its byte-identical re-upload, and a near-duplicate
// drawn from the same generator under another seed.
func benchRound(b *testing.B) []benchUpload {
	b.Helper()
	var round []benchUpload
	for i, c := range benchClasses {
		canonical := encodeClass(b, i, 11)
		round = append(round,
			benchUpload{c.name, canonical},
			benchUpload{c.name + "-exact", canonical},
			benchUpload{c.name + "-near", encodeClass(b, i, 12)})
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
