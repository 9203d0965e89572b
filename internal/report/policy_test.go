package report

// These tests pin the package's one non-finite float policy: FormatFloat
// and FiniteOrNull must agree on exactly which values are "does not apply"
// — a cell spelled "+Inf"/"-Inf"/"NaN" in CSV output is null in JSON
// output, and every finite value appears verbatim in both.

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestNonFinitePolicyAgreement(t *testing.T) {
	cases := []struct {
		v    float64
		text string
		null bool
	}{
		{0, "0", false},
		{1.5, "1.5", false},
		{-2.25e-7, "-2.25e-07", false},
		{387, "387", false},
		{math.MaxFloat64, "1.7976931348623157e+308", false},
		{math.SmallestNonzeroFloat64, "5e-324", false},
		{math.Inf(1), "+Inf", true},
		{math.Inf(-1), "-Inf", true},
		{math.NaN(), "NaN", true},
	}
	for _, tc := range cases {
		if got := FormatFloat(tc.v); got != tc.text {
			t.Errorf("FormatFloat(%v) = %q, want %q", tc.v, got, tc.text)
		}
		// The legacy export path used %g; FormatFloat must be its exact
		// replacement so golden CSVs never drift.
		if legacy := fmt.Sprintf("%g", tc.v); FormatFloat(tc.v) != legacy {
			t.Errorf("FormatFloat(%v) = %q differs from %%g %q", tc.v, FormatFloat(tc.v), legacy)
		}
		ptr := FiniteOrNull(tc.v)
		if tc.null && ptr != nil {
			t.Errorf("FiniteOrNull(%v) = %v, want nil", tc.v, *ptr)
		}
		if !tc.null && (ptr == nil || *ptr != tc.v) {
			t.Errorf("FiniteOrNull(%v) = %v, want the value", tc.v, ptr)
		}
	}
}

func TestSchemaTableTypedAppend(t *testing.T) {
	schema := []Column{
		{Name: "cell", Kind: String},
		{Name: "retention_s", Kind: Float, Unit: "s"},
		{Name: "dies", Kind: Int},
		{Name: "slowdown", Kind: Bool},
	}
	tab := NewSchemaTable("typed", schema)
	if got := tab.schema; len(got) != 4 || got[1].Unit != "s" {
		t.Fatalf("schema = %+v", got)
	}
	if err := tab.Append("SRAM", math.Inf(1), 8, false); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append("PCM", 0.25, 1, true); err != nil {
		t.Fatal(err)
	}

	var csv strings.Builder
	if err := tab.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "cell,retention_s,dies,slowdown\nSRAM,+Inf,8,false\nPCM,0.25,1,true\n"
	if csv.String() != want {
		t.Errorf("CSV = %q, want %q", csv.String(), want)
	}

	// The JSON form of the same table: +Inf is null, everything else typed.
	enc, err := json.Marshal(tab.JSONRows())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := `[["SRAM",null,8,false],["PCM",0.25,1,true]]`
	if string(enc) != wantJSON {
		t.Errorf("JSONRows = %s, want %s", enc, wantJSON)
	}
}

func TestSchemaTableRejectsBadRows(t *testing.T) {
	tab := NewSchemaTable("strict", []Column{{Name: "x", Kind: Float}})
	if err := tab.Append(1.0, 2.0); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tab.Append("not a float"); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := tab.Append(1); err == nil {
		t.Error("int into a Float column accepted (cells are not coerced)")
	}
	plain := NewTable("plain", "x")
	if err := plain.Append(1.0); err == nil {
		t.Error("Append on a schema-less table accepted")
	}
	if len(tab.Rows()) != 0 {
		t.Errorf("rejected rows were recorded: %v", tab.Rows())
	}
}

func TestKindNames(t *testing.T) {
	for kind, want := range map[Kind]string{String: "string", Float: "float", Int: "int", Bool: "bool"} {
		if kind.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", kind, kind.String(), want)
		}
	}
}
