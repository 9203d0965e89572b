package distill

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"coldtall/internal/ingest"
	"coldtall/internal/signature"
	"coldtall/internal/store"
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

// TestFitRecoversBuiltinProfiles is the acceptance criterion: distilling
// the synthetic stream of each built-in profile recovers generator
// parameters whose regenerated traffic matches the measured traffic
// within the pinned tolerance.
func TestFitRecoversBuiltinProfiles(t *testing.T) {
	for _, p := range workload.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			measured, err := workload.Measure(context.Background(), p, evalAccesses, evalSeed)
			if err != nil {
				t.Fatal(err)
			}
			g, err := p.Generator(evalSeed)
			if err != nil {
				t.Fatal(err)
			}
			sig := signature.FromGenerator(g, evalAccesses)
			res, err := Fit(context.Background(), p.Name, sig, measured, p.MemOpsPerKiloInstr, p.IPC)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted || res.RelErr > Tolerance {
				t.Fatalf("fit rejected: rel err %.3f after %d evals (tolerance %g)\nspec: %+v",
					res.RelErr, res.Evals, Tolerance, res.Spec)
			}
			if res.Evals > maxEvals {
				t.Fatalf("spent %d evals, budget %d", res.Evals, maxEvals)
			}
			if res.Spec.Workload != p.Name || res.Spec.Seed != evalSeed || res.Spec.EvalAccesses != evalAccesses {
				t.Fatalf("spec provenance drifted: %+v", res.Spec)
			}
			// The spec must round-trip into a valid regenerable profile.
			if err := res.Spec.Profile().Validate(); err != nil {
				t.Fatalf("fitted spec invalid: %v", err)
			}
			if res.SpecBytes <= 0 || res.SpecBytes > 1024 {
				t.Fatalf("spec bytes = %d, want a few hundred", res.SpecBytes)
			}
		})
	}
}

func TestFitIsDeterministic(t *testing.T) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const accesses = 1 << 14
	measured, err := workload.Measure(context.Background(), p, accesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Generator(1)
	if err != nil {
		t.Fatal(err)
	}
	sig := signature.FromGenerator(g, accesses)
	a, err := Fit(context.Background(), "mcf", sig, measured, p.MemOpsPerKiloInstr, p.IPC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(context.Background(), "mcf", sig, measured, p.MemOpsPerKiloInstr, p.IPC)
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec != b.Spec || a.RelErr != b.RelErr || a.Evals != b.Evals {
		t.Fatalf("fit not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestFitCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fit(ctx, "x", signature.Signature{Accesses: 1, Reads: 1, FootprintBlocks: 1},
		workload.Traffic{Benchmark: "x", ReadsPerSec: 1e6, WritesPerSec: 1e5}, 300, 1.0)
	if err == nil {
		t.Fatal("want a cancellation error")
	}
}

// TestRunReplacesTrace: an accepted end-to-end distillation persists the
// result and deletes the stored trace, keeping only the generator spec.
func TestRunReplacesTrace(t *testing.T) {
	reg := workload.NewRegistry()
	idx := signature.NewIndex()
	st := testStore(t)
	const accesses = 1 << 15
	ing, err := ingest.Run(context.Background(), ingest.Spec{
		Name:      "upload",
		Generator: &ingest.GeneratorSpec{Profile: "mcf", Accesses: accesses, Seed: 1},
	}, ingest.Options{Workloads: reg, Store: st, Sigs: idx})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(ingest.TraceKeyPrefix + ing.Source.TraceSHA256); !ok {
		t.Fatal("setup: trace not stored")
	}

	res, err := Run(context.Background(), "upload", reg, st, idx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("fit rejected at rel err %.3f", res.RelErr)
	}
	if !res.TraceDeleted {
		t.Fatal("accepted fit left the trace bytes in the store")
	}
	if _, ok := st.Get(ingest.TraceKeyPrefix + ing.Source.TraceSHA256); ok {
		t.Fatal("trace bytes still stored after replacement")
	}
	if res.TraceBytes == 0 || res.StorageRatio < 50 {
		t.Fatalf("storage accounting: trace %d B, spec %d B, ratio %.0fx",
			res.TraceBytes, res.SpecBytes, res.StorageRatio)
	}
	raw, ok := st.Get(KeyPrefix + "upload")
	if !ok {
		t.Fatal("distillation result not persisted")
	}
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec != res.Spec || back.RelErr != res.RelErr {
		t.Fatal("persisted result drifted")
	}
	// The workload itself stays registered and resolvable.
	if _, err := reg.Traffic("upload"); err != nil {
		t.Fatal(err)
	}
}

// TestRunKeepsSharedTrace: the trace bytes survive when another workload
// content-addresses the same trace.
func TestRunKeepsSharedTrace(t *testing.T) {
	reg := workload.NewRegistry()
	idx := signature.NewIndex()
	st := testStore(t)
	const accesses = 1 << 15
	spec := ingest.Spec{Name: "first", Generator: &ingest.GeneratorSpec{Profile: "mcf", Accesses: accesses, Seed: 1}}
	ing, err := ingest.Run(context.Background(), spec, ingest.Options{Workloads: reg, Store: st, Sigs: idx})
	if err != nil {
		t.Fatal(err)
	}
	// A second canonical entry over the same bytes: ingesting them again
	// would alias, so register it directly.
	second := ing.Source
	second.Name, second.Traffic.Benchmark = "second", "second"
	if err := reg.Add(second); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), "first", reg, st, idx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("fit rejected at rel err %.3f", res.RelErr)
	}
	if res.TraceDeleted {
		t.Fatal("deleted a trace another workload still references")
	}
	if _, ok := st.Get(ingest.TraceKeyPrefix + ing.Source.TraceSHA256); !ok {
		t.Fatal("shared trace bytes vanished")
	}
}

func TestRunRefusals(t *testing.T) {
	reg := workload.NewRegistry()
	idx := signature.NewIndex()
	st := testStore(t)
	canon := workload.Source{
		Name: "canon", Kind: workload.SourceTrace,
		Traffic:     workload.Traffic{Benchmark: "canon", ReadsPerSec: 1e6, WritesPerSec: 1e5},
		TraceSHA256: "feed", MemOpsPerKiloInstr: 300, IPC: 1,
	}
	if err := reg.Add(canon); err != nil {
		t.Fatal(err)
	}
	alias := workload.Source{
		Name: "dup", Kind: workload.SourceAlias, AliasOf: "canon",
		Traffic:     canon.Traffic,
		TraceSHA256: "beef", MemOpsPerKiloInstr: 300, IPC: 1,
	}
	if err := reg.Add(alias); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"mcf":     "static",
		"dup":     "alias",
		"missing": "unknown",
		"canon":   "no signature",
	} {
		_, err := Run(context.Background(), name, reg, st, idx)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run(%s) = %v, want %q", name, err, want)
		}
	}
	if _, err := Run(context.Background(), "canon", reg, st, nil); err == nil || !strings.Contains(err.Error(), "signature index") {
		t.Errorf("Run without an index = %v, want a signature-index error", err)
	}
}
