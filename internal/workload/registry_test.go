package workload

import (
	"strings"
	"testing"
)

func customSource(name string) Source {
	return Source{
		Name:               name,
		Kind:               SourceTrace,
		Description:        "test upload",
		Traffic:            Traffic{Benchmark: name, ReadsPerSec: 1e6, WritesPerSec: 2e5},
		Accesses:           100000,
		TraceSHA256:        "deadbeef",
		MemOpsPerKiloInstr: 300,
		IPC:                1.0,
	}
}

func TestRegistryAddAndLookup(t *testing.T) {
	r := NewRegistry()
	s := customSource("mytrace")
	if err := r.Add(s); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup("mytrace")
	if !ok || got != s {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	tr, err := r.Traffic("mytrace")
	if err != nil || tr != s.Traffic {
		t.Fatalf("Traffic = %+v, %v", tr, err)
	}
}

func TestRegistryStaticFallback(t *testing.T) {
	r := NewRegistry()
	s, ok := r.Lookup("mcf")
	if !ok || s.Kind != SourceStatic {
		t.Fatalf("Lookup(mcf) = %+v, %v", s, ok)
	}
	want, _ := StaticTrafficFor("mcf")
	if s.Traffic != want {
		t.Fatalf("static traffic = %+v, want %+v", s.Traffic, want)
	}
	if s.IPC == 0 || s.MemOpsPerKiloInstr == 0 {
		t.Fatal("static source lost its core model parameters")
	}
	if _, err := r.Traffic("no-such-workload"); err == nil {
		t.Fatal("want unknown-workload error")
	}
}

func TestRegistryReservedAndConflicts(t *testing.T) {
	r := NewRegistry()
	static := customSource("mcf")
	if err := r.Add(static); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("adding over a static name: %v", err)
	}

	s := customSource("mine")
	if err := r.Add(s); err != nil {
		t.Fatal(err)
	}
	// Identical re-add is idempotent (job retries, boot recovery).
	if err := r.Add(s); err != nil {
		t.Fatalf("idempotent re-add: %v", err)
	}
	changed := s
	changed.Traffic.ReadsPerSec *= 2
	if err := r.Add(changed); err == nil {
		t.Fatal("want conflict error for a changed re-add")
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	bad := []Source{
		{Name: "UPPER", Kind: SourceTrace, Traffic: Traffic{Benchmark: "UPPER"}},
		{Name: "", Kind: SourceTrace},
		{Name: strings.Repeat("a", 65), Kind: SourceTrace},
		{Name: "ok", Kind: "bogus", Traffic: Traffic{Benchmark: "ok"}},
		{Name: "ok", Kind: SourceTrace, Traffic: Traffic{Benchmark: "other"}},
		{Name: "ok", Kind: SourceTrace, Traffic: Traffic{Benchmark: "ok", ReadsPerSec: -1}},
		{Name: "../evil", Kind: SourceTrace, Traffic: Traffic{Benchmark: "../evil"}},
	}
	for _, s := range bad {
		if err := r.Add(s); err == nil {
			t.Fatalf("Add(%+v) accepted an invalid source", s)
		}
	}
}

func TestRegistryAllOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zz-last", "aa-first"} {
		if err := r.Add(customSource(name)); err != nil {
			t.Fatal(err)
		}
	}
	all := r.All()
	if len(all) != 25 {
		t.Fatalf("All() = %d entries, want 23 static + 2 custom", len(all))
	}
	names := Names()
	for i, n := range names {
		if all[i].Name != n {
			t.Fatalf("All()[%d] = %q, want static order %q", i, all[i].Name, n)
		}
	}
	if all[23].Name != "aa-first" || all[24].Name != "zz-last" {
		t.Fatalf("custom tail = %q, %q", all[23].Name, all[24].Name)
	}
	if got := len(r.Custom()); got != 2 {
		t.Fatalf("Custom() = %d entries", got)
	}
}

func TestExtrapolateMatchesMeasure(t *testing.T) {
	// Extrapolate is the Measure formula factored out; pin the algebra.
	tr := Extrapolate("x", 1000, 250, 300000, 300, 1.0)
	instructions := 300000.0 * 1000 / 300
	seconds := instructions / 1.0 / DefaultFrequencyHz
	if want := 1000.0 / seconds * Cores; tr.ReadsPerSec != want {
		t.Fatalf("ReadsPerSec = %g, want %g", tr.ReadsPerSec, want)
	}
	if want := 250.0 / seconds * Cores; tr.WritesPerSec != want {
		t.Fatalf("WritesPerSec = %g, want %g", tr.WritesPerSec, want)
	}
}

func aliasSource(name, canonical string, canonicalTraffic Traffic) Source {
	return Source{
		Name:               name,
		Kind:               SourceAlias,
		Traffic:            canonicalTraffic,
		Accesses:           100000,
		TraceSHA256:        "cafef00d",
		MemOpsPerKiloInstr: 300,
		IPC:                1.0,
		AliasOf:            canonical,
		DedupDistance:      0.01,
	}
}

func TestRegistryAlias(t *testing.T) {
	r := NewRegistry()
	canon := customSource("canon")
	if err := r.Add(canon); err != nil {
		t.Fatal(err)
	}
	alias := aliasSource("dup", "canon", canon.Traffic)
	if err := r.Add(alias); err != nil {
		t.Fatal(err)
	}
	// Canonical resolves one hop; non-aliases and unknowns pass through.
	if got := r.Canonical("dup"); got != "canon" {
		t.Fatalf("Canonical(dup) = %q", got)
	}
	if got := r.Canonical("canon"); got != "canon" {
		t.Fatalf("Canonical(canon) = %q", got)
	}
	if got := r.Canonical("nobody"); got != "nobody" {
		t.Fatalf("Canonical(nobody) = %q", got)
	}
	// The alias resolves to the canonical entry's traffic, labeled by the
	// canonical name — what keeps artifacts via the alias byte-identical.
	tr, err := r.Traffic("dup")
	if err != nil || tr != canon.Traffic {
		t.Fatalf("Traffic(dup) = %+v, %v", tr, err)
	}
	if deps := r.Dependents("canon"); len(deps) != 1 || deps[0] != "dup" {
		t.Fatalf("Dependents(canon) = %v", deps)
	}

	// Validation: alias structure errors.
	for _, bad := range []Source{
		{Name: "a1", Kind: SourceAlias, Traffic: Traffic{Benchmark: "a1"}},                          // missing alias_of
		{Name: "a2", Kind: SourceAlias, AliasOf: "a2", Traffic: Traffic{Benchmark: "a2"}},           // self alias
		{Name: "a3", Kind: SourceAlias, AliasOf: "canon", Traffic: Traffic{Benchmark: "a3"}},        // mislabeled traffic
		{Name: "a4", Kind: SourceTrace, AliasOf: "canon", Traffic: Traffic{Benchmark: "a4"}},        // alias_of on non-alias
		{Name: "a5", Kind: SourceAlias, AliasOf: "missing", Traffic: Traffic{Benchmark: "missing"}}, // unknown canonical
	} {
		if err := r.Add(bad); err == nil {
			t.Errorf("Add(%+v) accepted an invalid alias", bad)
		}
	}
	// No chains: an alias cannot point at an alias.
	chain := aliasSource("chain", "dup", canon.Traffic)
	chain.Traffic.Benchmark = "dup"
	if err := r.Add(chain); err == nil || !strings.Contains(err.Error(), "alias") {
		t.Fatalf("alias chain: %v", err)
	}
	// Aliasing a static benchmark is allowed (its traffic is permanent).
	static, _ := StaticTrafficFor("mcf")
	staticAlias := aliasSource("mcf-again", "mcf", static)
	if err := r.Add(staticAlias); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryRemoveOrdering pins the deletion contract: a canonical
// entry with live aliases is refused with an error naming the dependents;
// removing the aliases first unblocks it.
func TestRegistryRemoveOrdering(t *testing.T) {
	r := NewRegistry()
	canon := customSource("canon")
	if err := r.Add(canon); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dup-b", "dup-a"} {
		if err := r.Add(aliasSource(name, "canon", canon.Traffic)); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := r.Remove("mcf"); err == nil || !strings.Contains(err.Error(), "static") {
		t.Fatalf("removing a static benchmark: %v", err)
	}
	if _, err := r.Remove("nobody"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("removing an unknown name: %v", err)
	}
	_, err := r.Remove("canon")
	if err == nil {
		t.Fatal("removed a canonical entry with live aliases")
	}
	// The error lists the dependents, sorted, so the user knows what to
	// remove first.
	if msg := err.Error(); !strings.Contains(msg, "dup-a dup-b") {
		t.Fatalf("dependent listing missing from %q", msg)
	}

	for _, name := range []string{"dup-a", "dup-b"} {
		got, err := r.Remove(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != name || got.Kind != SourceAlias {
			t.Fatalf("Remove(%s) returned %+v", name, got)
		}
	}
	got, err := r.Remove("canon")
	if err != nil {
		t.Fatalf("removing canon after its aliases: %v", err)
	}
	if got != canon {
		t.Fatalf("Remove(canon) returned %+v", got)
	}
	if _, ok := r.Lookup("canon"); ok {
		t.Fatal("canon still resolvable after Remove")
	}
	// The freed name can be re-registered.
	if err := r.Add(customSource("canon")); err != nil {
		t.Fatal(err)
	}
}
