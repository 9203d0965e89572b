package artifact

import (
	"context"
	"strings"
	"testing"

	"coldtall/internal/report"
)

// provider is a toy data source for registry tests.
type provider struct{ rows [][2]float64 }

func twoCol() []report.Column {
	return []report.Column{
		{Name: "x", Kind: report.Float},
		{Name: "y", Kind: report.Float},
	}
}

func fill(ctx context.Context, p *provider, t *report.Table) error {
	for _, r := range p.rows {
		if err := t.Append(r[0], r[1]); err != nil {
			return err
		}
	}
	return nil
}

func testRegistry(t *testing.T) *Registry[*provider] {
	t.Helper()
	r, err := New(
		Descriptor[*provider]{
			Name: "alpha", File: "alpha.csv", Title: "Alpha", Paper: "Fig. 0",
			Columns: twoCol(), Build: fill,
		},
		Descriptor[*provider]{
			Name: "beta", File: "beta.csv", Title: "Beta",
			Columns: twoCol(), Note: "  a footnote",
			Scatters: []Scatter{{Title: "beta plot", XCol: "x", YCol: "y", SeriesCol: "x"}},
			Build:    fill,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryAccessors(t *testing.T) {
	r := testRegistry(t)
	if got := strings.Join(r.Names(), ","); got != "alpha,beta" {
		t.Errorf("Names = %s", got)
	}
	// Lookup resolves both registry and file names.
	for _, name := range []string{"beta", "beta.csv"} {
		if d, ok := r.Lookup(name); !ok || d.Name != "beta" {
			t.Errorf("Lookup(%q) = %+v, %v", name, d, ok)
		}
	}
	if _, ok := r.Lookup("gamma"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	// Descriptors returns a copy, not the registry's backing slice.
	ds := r.Descriptors()
	ds[0].Name = "mutated"
	if r.Names()[0] != "alpha" {
		t.Error("mutating Descriptors() leaked into the registry")
	}
}

func TestRegistryBuild(t *testing.T) {
	r := testRegistry(t)
	p := &provider{rows: [][2]float64{{1, 2}, {3, 4}}}
	tab, err := r.Build(context.Background(), p, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Title != "Alpha" || len(tab.Rows()) != 2 {
		t.Errorf("built table = %q with %d rows", tab.Title, len(tab.Rows()))
	}
	if _, err := r.Build(context.Background(), p, "gamma"); err == nil ||
		!strings.Contains(err.Error(), "alpha, beta") {
		t.Errorf("unknown-name error should list known names, got %v", err)
	}
}

func TestRegistryRender(t *testing.T) {
	r := testRegistry(t)
	p := &provider{rows: [][2]float64{{1, 2}, {10, 20}}}
	var plain strings.Builder
	if err := r.Render(context.Background(), p, "beta", &plain, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Beta", "a footnote"} {
		if !strings.Contains(plain.String(), want) {
			t.Errorf("render missing %q:\n%s", want, plain.String())
		}
	}
	if strings.Contains(plain.String(), "beta plot") {
		t.Error("scatter rendered without plot=true")
	}
	var plotted strings.Builder
	if err := r.Render(context.Background(), p, "beta", &plotted, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plotted.String(), "beta plot") {
		t.Errorf("plot=true did not render the scatter hint:\n%s", plotted.String())
	}
	if err := r.Render(context.Background(), p, "gamma", &plain, false); err == nil {
		t.Error("rendering an unknown artifact succeeded")
	}
}

func TestNewRejectsBadDescriptors(t *testing.T) {
	base := func() Descriptor[*provider] {
		return Descriptor[*provider]{Name: "d", File: "d.csv", Columns: twoCol(), Build: fill}
	}
	cases := map[string]func() ([]Descriptor[*provider], string){
		"no name": func() ([]Descriptor[*provider], string) {
			d := base()
			d.Name = ""
			return []Descriptor[*provider]{d}, "needs a name"
		},
		"no build": func() ([]Descriptor[*provider], string) {
			d := base()
			d.Build = nil
			return []Descriptor[*provider]{d}, "no build function"
		},
		"empty schema": func() ([]Descriptor[*provider], string) {
			d := base()
			d.Columns = nil
			return []Descriptor[*provider]{d}, "empty column schema"
		},
		"duplicate column": func() ([]Descriptor[*provider], string) {
			d := base()
			d.Columns = append(d.Columns, d.Columns[0])
			return []Descriptor[*provider]{d}, "repeats column"
		},
		"scatter on non-float": func() ([]Descriptor[*provider], string) {
			d := base()
			d.Columns = append(d.Columns, report.Column{Name: "label", Kind: report.String})
			d.Scatters = []Scatter{{Title: "p", XCol: "label", YCol: "y", SeriesCol: "x"}}
			return []Descriptor[*provider]{d}, "needs Float column"
		},
		"scatter unknown series": func() ([]Descriptor[*provider], string) {
			d := base()
			d.Scatters = []Scatter{{Title: "p", XCol: "x", YCol: "y", SeriesCol: "nope"}}
			return []Descriptor[*provider]{d}, "unknown series column"
		},
		"name collision": func() ([]Descriptor[*provider], string) {
			a, b := base(), base()
			b.File = "other.csv"
			return []Descriptor[*provider]{a, b}, "claimed by both"
		},
		"empty registry": func() ([]Descriptor[*provider], string) {
			return nil, "at least one descriptor"
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			ds, wantErr := mk()
			if _, err := New(ds...); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("New = %v, want error containing %q", err, wantErr)
			}
		})
	}
}
