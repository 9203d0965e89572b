// Package artifact is the declarative registry behind every paper
// deliverable. Each figure, table and extension sweep is one Descriptor —
// name, title, typed column schema, paper mapping, render hints and a
// build function — and every consumer (CSV export, ASCII/plot rendering,
// the HTTP API, the CLI) derives its surface by iterating the registry
// instead of enumerating artifacts by hand. Adding artifact N+1 is one
// descriptor; the CLI subcommand, the export file, the JSON/CSV endpoints
// and the golden-regression coverage all follow from it.
//
// The registry is generic over the provider type P (the study-like value
// build functions pull data from), so a future backend with its own
// provider gets the same machinery without touching this package.
package artifact

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"coldtall/internal/report"
)

// Scatter is a plot hint: one log-log scatter rendered after the table,
// with X/Y taken from named Float columns and one series per distinct
// value of the series column (first-appearance order).
type Scatter struct {
	// Title, XLabel and YLabel annotate the plot.
	Title, XLabel, YLabel string
	// XCol and YCol name Float columns of the artifact's schema.
	XCol, YCol string
	// SeriesCol names the column whose values group rows into series.
	SeriesCol string
}

// Descriptor declares one artifact.
type Descriptor[P any] struct {
	// Name is the registry name ("fig1", "table2", "cooling").
	Name string
	// File is the export file name ("fig1.csv").
	File string
	// Title heads the rendered table.
	Title string
	// Paper maps the artifact back to the source paper ("Fig. 1",
	// "Table II", "Sec. III-C").
	Paper string
	// Columns is the typed schema every build must produce.
	Columns []report.Column
	// Note, when set, becomes the built table's Note, which its text
	// rendering prints after the grid.
	Note string
	// Scatters are optional plot hints rendered after the table.
	Scatters []Scatter
	// Build fills t (a schema table pre-constructed from Columns) from
	// the provider. ctx bounds the computation.
	Build func(ctx context.Context, p P, t *report.Table) error
}

// Registry is an ordered, name-indexed set of descriptors. Construct with
// New; it is immutable afterwards and safe for concurrent use.
type Registry[P any] struct {
	ordered []Descriptor[P]
	byName  map[string]int
}

// New validates the descriptors (unique names and files, non-empty typed
// schemas, build functions present, scatter hints referencing real Float
// columns) and returns the registry preserving their order.
func New[P any](descriptors ...Descriptor[P]) (*Registry[P], error) {
	r := &Registry[P]{byName: make(map[string]int, 2*len(descriptors))}
	for _, d := range descriptors {
		if d.Name == "" || d.File == "" {
			return nil, fmt.Errorf("artifact: descriptor needs a name and a file, got %q/%q", d.Name, d.File)
		}
		if d.Build == nil {
			return nil, fmt.Errorf("artifact: %s has no build function", d.Name)
		}
		if len(d.Columns) == 0 {
			return nil, fmt.Errorf("artifact: %s has an empty column schema", d.Name)
		}
		cols := make(map[string]report.Kind, len(d.Columns))
		for _, c := range d.Columns {
			if c.Name == "" {
				return nil, fmt.Errorf("artifact: %s has an unnamed column", d.Name)
			}
			if _, dup := cols[c.Name]; dup {
				return nil, fmt.Errorf("artifact: %s repeats column %s", d.Name, c.Name)
			}
			cols[c.Name] = c.Kind
		}
		for _, sc := range d.Scatters {
			for _, name := range []string{sc.XCol, sc.YCol} {
				if k, ok := cols[name]; !ok || k != report.Float {
					return nil, fmt.Errorf("artifact: %s scatter %q needs Float column %q", d.Name, sc.Title, name)
				}
			}
			if _, ok := cols[sc.SeriesCol]; !ok {
				return nil, fmt.Errorf("artifact: %s scatter %q references unknown series column %q", d.Name, sc.Title, sc.SeriesCol)
			}
		}
		for _, key := range []string{d.Name, d.File} {
			if prev, dup := r.byName[key]; dup {
				return nil, fmt.Errorf("artifact: %q is claimed by both %s and %s", key, r.ordered[prev].Name, d.Name)
			}
			r.byName[key] = len(r.ordered)
		}
		r.ordered = append(r.ordered, d)
	}
	if len(r.ordered) == 0 {
		return nil, fmt.Errorf("artifact: registry needs at least one descriptor")
	}
	return r, nil
}

// MustNew is New for package-level registries; invalid descriptors are a
// programming error and panic at init.
func MustNew[P any](descriptors ...Descriptor[P]) *Registry[P] {
	r, err := New(descriptors...)
	if err != nil {
		panic(err)
	}
	return r
}

// Descriptors returns the descriptors in registration (paper) order.
func (r *Registry[P]) Descriptors() []Descriptor[P] {
	return append([]Descriptor[P](nil), r.ordered...)
}

// Names lists the registry names in paper order.
func (r *Registry[P]) Names() []string {
	out := make([]string, len(r.ordered))
	for i, d := range r.ordered {
		out[i] = d.Name
	}
	return out
}

// Lookup resolves an artifact by registry name or export file name.
func (r *Registry[P]) Lookup(name string) (Descriptor[P], bool) {
	i, ok := r.byName[name]
	if !ok {
		return Descriptor[P]{}, false
	}
	return r.ordered[i], true
}

// Build constructs the named artifact's table from the provider: a schema
// table is created from the descriptor's columns, title and note, filled by the
// descriptor's build function, and returned. Unknown names report the
// known ones.
func (r *Registry[P]) Build(ctx context.Context, p P, name string) (*report.Table, error) {
	d, ok := r.Lookup(name)
	if !ok {
		known := r.Names()
		sort.Strings(known)
		return nil, fmt.Errorf("artifact: unknown artifact %q (want one of %s)", name, strings.Join(known, ", "))
	}
	t := report.NewSchemaTable(d.Title, d.Columns)
	t.Note = d.Note
	if err := d.Build(ctx, p, t); err != nil {
		return nil, fmt.Errorf("artifact: building %s: %w", d.Name, err)
	}
	return t, nil
}
