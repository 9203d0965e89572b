package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"coldtall/internal/store"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), store.Options{Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func genSpec(name string, accesses int) Spec {
	return Spec{
		Name:        name,
		Description: "synthetic test workload",
		Generator: &GeneratorSpec{
			Pattern:         "stream",
			WorkingSetBytes: 64 << 20,
			WriteFrac:       0.3,
			Accesses:        accesses,
			Seed:            7,
		},
	}
}

func TestRunGeneratorSpec(t *testing.T) {
	reg := workload.NewRegistry()
	st := testStore(t)
	var lastDone, lastTotal uint64
	res, err := Run(context.Background(), genSpec("mystream", 200000), Options{
		Workloads: reg,
		Store:     st,
		OnProgress: func(done, total uint64) {
			if done < lastDone {
				t.Errorf("progress went backwards: %d after %d", done, lastDone)
			}
			lastDone, lastTotal = done, total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 200000 || lastTotal != 200000 {
		t.Fatalf("final progress %d/%d, want 200000/200000", lastDone, lastTotal)
	}
	if res.Source.Kind != workload.SourceProfile {
		t.Fatalf("kind = %q", res.Source.Kind)
	}
	// A 64 MiB stream defeats every cache level: traffic must be loud.
	if res.Source.Traffic.ReadsPerSec < 1e6 {
		t.Fatalf("stream workload measured only %g reads/s", res.Source.Traffic.ReadsPerSec)
	}
	if res.Source.Traffic.WritesPerSec <= 0 {
		t.Fatal("no write traffic measured")
	}
	if res.WarmupAccesses != 50000 {
		t.Fatalf("warmup = %d, want a quarter of the stream", res.WarmupAccesses)
	}
	if res.Stats.Accesses != 150000 {
		t.Fatalf("measurement window = %d accesses, want 150000", res.Stats.Accesses)
	}

	// Registered and resolvable.
	if tr, err := reg.Traffic("mystream"); err != nil || tr != res.Source.Traffic {
		t.Fatalf("registry traffic = %+v, %v", tr, err)
	}
	// Trace content-addressed in the store.
	raw, ok := st.Get(TraceKeyPrefix + res.Source.TraceSHA256)
	if !ok {
		t.Fatal("canonical trace bytes not stored")
	}
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != res.Source.TraceSHA256 {
		t.Fatal("stored trace does not match its content address")
	}
	if len(raw) != res.TraceBytes {
		t.Fatalf("TraceBytes = %d, stored %d", res.TraceBytes, len(raw))
	}
	// Workload record persisted for recovery.
	if _, ok := st.Get(WorkloadKeyPrefix + "mystream"); !ok {
		t.Fatal("workload record not stored")
	}
}

func TestRunIsIdempotent(t *testing.T) {
	reg := workload.NewRegistry()
	st := testStore(t)
	spec := genSpec("repeat", 50000)
	first, err := Run(context.Background(), spec, Options{Workloads: reg, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(context.Background(), spec, Options{Workloads: reg, Store: st})
	if err != nil {
		t.Fatalf("re-running an identical spec: %v", err)
	}
	if first.Source != second.Source {
		t.Fatalf("re-run produced a different source:\n%+v\n%+v", first.Source, second.Source)
	}
}

func TestRunUploadedTraceBothFormats(t *testing.T) {
	g, err := trace.NewStream(trace.Region{Base: 0, Size: 32 << 20}, 1, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 60000)
	var text bytes.Buffer
	if err := trace.WriteText(&text, accesses); err != nil {
		t.Fatal(err)
	}

	var sources []workload.Source
	for name, payload := range map[string][]byte{
		"astext": text.Bytes(),
		"asbin":  trace.EncodeBinary(accesses),
	} {
		reg := workload.NewRegistry()
		res, err := Run(context.Background(), Spec{Name: name, Trace: payload}, Options{Workloads: reg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Source.Kind != workload.SourceTrace {
			t.Fatalf("%s: kind = %q", name, res.Source.Kind)
		}
		sources = append(sources, res.Source)
	}
	// Same accesses, same canonical bytes, same derived traffic — only
	// the names differ.
	if sources[0].TraceSHA256 != sources[1].TraceSHA256 {
		t.Fatal("text and binary uploads of the same trace content-address differently")
	}
	a, b := sources[0].Traffic, sources[1].Traffic
	if a.ReadsPerSec != b.ReadsPerSec || a.WritesPerSec != b.WritesPerSec {
		t.Fatal("text and binary uploads derived different traffic")
	}
}

func TestRecoverSources(t *testing.T) {
	st := testStore(t)
	reg := workload.NewRegistry()
	if _, err := Run(context.Background(), genSpec("survivor", 50000), Options{Workloads: reg, Store: st}); err != nil {
		t.Fatal(err)
	}
	// Poison one record: recovery must skip it, not die.
	if err := st.Put(WorkloadKeyPrefix+"broken", []byte("{not json")); err != nil {
		t.Fatal(err)
	}

	fresh := workload.NewRegistry()
	recovered, skipped, err := RecoverSources(st, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 || skipped != 1 {
		t.Fatalf("recovered %d, skipped %d; want 1 and 1", recovered, skipped)
	}
	want, _ := reg.Lookup("survivor")
	got, ok := fresh.Lookup("survivor")
	if !ok || got != want {
		t.Fatalf("recovered source %+v, want %+v", got, want)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no name", Spec{Trace: []byte("R 0x0\n")}},
		{"reserved name", func() Spec { s := genSpec("mcf", 50000); return s }()},
		{"neither source", Spec{Name: "x"}},
		{"both sources", Spec{Name: "x", Trace: []byte("R 0x0\n"), Generator: &GeneratorSpec{Pattern: "stream", WorkingSetBytes: 1 << 20, Accesses: 5000}}},
		{"accesses too few", func() Spec { s := genSpec("x", 10); return s }()},
		{"accesses too many", func() Spec { s := genSpec("x", MaxAccesses+1); return s }()},
		{"profile and pattern", Spec{Name: "x", Generator: &GeneratorSpec{Profile: "mcf", Pattern: "stream", Accesses: 5000}}},
		{"bad ipc", func() Spec { s := genSpec("x", 50000); s.IPC = 99; return s }()},
		{"bad memki", func() Spec { s := genSpec("x", 50000); s.MemOpsPerKiloInstr = -1; return s }()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(context.Background(), tc.spec, Options{Workloads: workload.NewRegistry()}); err == nil {
				t.Fatal("want a validation error")
			}
		})
	}

	t.Run("undecodable trace", func(t *testing.T) {
		_, err := Run(context.Background(), Spec{Name: "bad", Trace: []byte("R 0xzz\n")}, Options{Workloads: workload.NewRegistry()})
		if err == nil {
			t.Fatal("want a decode error")
		}
	})
	t.Run("trace too short", func(t *testing.T) {
		_, err := Run(context.Background(), Spec{Name: "tiny", Trace: []byte("R 0x40\nW 0x80\n")}, Options{Workloads: workload.NewRegistry()})
		if err == nil {
			t.Fatal("want a too-short error")
		}
	})
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, genSpec("never", 100000), Options{Workloads: workload.NewRegistry()})
	if err == nil {
		t.Fatal("want a cancellation error")
	}
}

// TestReingestSkipsTraceRewrite pins that an entry the store already holds
// is not rewritten: a re-run writes only its sig| and workload| entries,
// and an exact duplicate under a new name only its workload| record.
func TestReingestSkipsTraceRewrite(t *testing.T) {
	reg := workload.NewRegistry()
	st := testStore(t)
	opts := Options{Workloads: reg, Store: st}
	first, err := Run(context.Background(), genSpec("orig", 50000), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		puts int64
	}{
		{"orig", 2}, // re-run: sig| and workload|
		{"copy", 1}, // exact duplicate: the alias's workload| record
	} {
		before := st.Stats().Puts
		if _, err := Run(context.Background(), genSpec(tc.name, 50000), opts); err != nil {
			t.Fatal(err)
		}
		if got := st.Stats().Puts - before; got != tc.puts {
			t.Errorf("re-ingest as %q: %d puts, want %d (the trace| blob must not be rewritten)", tc.name, got, tc.puts)
		}
	}
	if _, ok := st.Get(TraceKeyPrefix + first.Source.TraceSHA256); !ok {
		t.Fatal("trace entry lost")
	}
}

// TestReingestRewritesCorruptTrace pins the other side: a trace| entry the
// store cannot vouch for is quarantined on read and written again.
func TestReingestRewritesCorruptTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(dir, store.Options{Version: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workloads: workload.NewRegistry(), Store: st}
	res, err := Run(context.Background(), genSpec("victim", 50000), opts)
	if err != nil {
		t.Fatal(err)
	}
	key := TraceKeyPrefix + res.Source.TraceSHA256
	// Flip the last payload byte of the entry whose header names the key.
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(strconv.Quote(key))) {
			raw[len(raw)-1] ^= 0xff
			if err := os.WriteFile(f, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatalf("no entry file holds %s", key)
	}
	if _, err := Run(context.Background(), genSpec("victim", 50000), opts); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Errorf("corrupt entries seen = %d, want 1", s.Corrupt)
	}
	raw, ok := st.Get(key)
	if !ok {
		t.Fatal("corrupt trace entry was not rewritten")
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != res.Source.TraceSHA256 {
		t.Fatal("rewritten trace does not match its content address")
	}
}
