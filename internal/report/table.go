// Package report renders the study's tables and figure series as aligned
// ASCII, CSV, and coarse terminal scatter plots, so every table and figure
// of the paper can be regenerated from the command line and diffed as text.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Kind types a table column. It decides how typed cells are formatted for
// CSV/ASCII output and how they are encoded in JSON.
type Kind int

const (
	// String cells pass through verbatim.
	String Kind = iota
	// Float cells format with %g (FormatFloat) and encode as JSON numbers,
	// with non-finite values becoming JSON null (FiniteOrNull).
	Float
	// Int cells format in base 10.
	Int
	// Bool cells format as true/false.
	Bool
)

// String names the kind (the wire form of artifact schemas).
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case Bool:
		return "bool"
	default:
		return "string"
	}
}

// Column is one typed column of a schema-carrying table.
type Column struct {
	// Name is the header label ("temperature_k").
	Name string
	// Kind types the cells.
	Kind Kind
	// Unit documents the physical unit ("K", "1/s"); empty for
	// dimensionless or string columns.
	Unit string
}

// Table is a titled grid of cells. Tables built with NewTable hold plain
// string cells; tables built with NewSchemaTable additionally carry a typed
// column schema and keep each Append'ed cell in its original type, so one
// table renders as CSV/ASCII text and encodes as typed JSON without the
// consumers re-parsing strings.
type Table struct {
	// Title is printed above the grid.
	Title string
	// Columns are the header labels.
	Columns []string
	// Note, when set, is printed verbatim after the grid, separated by a
	// blank line: the footnote prose a table's numbers need to be read.
	Note   string
	schema []Column
	rows   [][]string
	typed  [][]any
}

// NewTable creates a table with the given header.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// NewSchemaTable creates a table with a typed column schema. Rows are added
// with Append; the header labels are the schema's column names.
func NewSchemaTable(title string, schema []Column) *Table {
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	return &Table{Title: title, Columns: cols, schema: append([]Column(nil), schema...)}
}

// Append adds one typed row to a schema table. Cells must match the schema
// in arity and kind; each is formatted by its column's kind (FormatFloat
// for floats, base-10 for ints, true/false for bools) and also retained in
// its original type for JSONRows.
func (t *Table) Append(cells ...any) error {
	if t.schema == nil {
		return fmt.Errorf("report: Append needs a schema table (use NewSchemaTable)")
	}
	if len(cells) != len(t.schema) {
		return fmt.Errorf("report: row has %d cells, schema has %d columns", len(cells), len(t.schema))
	}
	row := make([]string, len(cells))
	for i, cell := range cells {
		s, err := formatCell(t.schema[i], cell)
		if err != nil {
			return err
		}
		row[i] = s
	}
	t.rows = append(t.rows, row)
	t.typed = append(t.typed, append([]any(nil), cells...))
	return nil
}

// formatCell renders one typed cell by its column kind.
func formatCell(c Column, v any) (string, error) {
	switch c.Kind {
	case String:
		s, ok := v.(string)
		if !ok {
			return "", fmt.Errorf("report: column %s wants a string, got %T", c.Name, v)
		}
		return s, nil
	case Float:
		f, ok := v.(float64)
		if !ok {
			return "", fmt.Errorf("report: column %s wants a float64, got %T", c.Name, v)
		}
		return FormatFloat(f), nil
	case Int:
		n, ok := v.(int)
		if !ok {
			return "", fmt.Errorf("report: column %s wants an int, got %T", c.Name, v)
		}
		return strconv.Itoa(n), nil
	case Bool:
		b, ok := v.(bool)
		if !ok {
			return "", fmt.Errorf("report: column %s wants a bool, got %T", c.Name, v)
		}
		return strconv.FormatBool(b), nil
	}
	return "", fmt.Errorf("report: column %s has unknown kind %d", c.Name, c.Kind)
}

// JSONRows returns the rows in JSON-encodable form. Schema tables yield
// typed cells with the package's one non-finite policy applied: a Float
// cell that is NaN or ±Inf becomes nil (JSON null), exactly the values
// FormatFloat spells "+Inf"/"-Inf"/"NaN" in text output. Plain tables
// yield their string cells.
func (t *Table) JSONRows() [][]any {
	out := make([][]any, len(t.rows))
	for i := range t.rows {
		if t.typed != nil {
			row := make([]any, len(t.typed[i]))
			for j, v := range t.typed[i] {
				if f, ok := v.(float64); ok {
					row[j] = FiniteOrNull(f)
					continue
				}
				row[j] = v
			}
			out[i] = row
			continue
		}
		row := make([]any, len(t.rows[i]))
		for j, s := range t.rows[i] {
			row[j] = s
		}
		out[i] = row
	}
	return out
}

// AddRow appends one row; short rows are padded, long rows truncated to the
// column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the accumulated rows.
func (t *Table) Rows() [][]string { return t.rows }

// Render writes the table as aligned ASCII, then its Note. The last
// column is not padded, so no line ends in a space.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight("  "+strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return err
		}
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "\n%s\n", t.Note); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV with the header first.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders to a string (test helper and small outputs).
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Eng formats a value with engineering notation suited to the study's
// magnitudes (powers in watts, times in seconds, areas in square metres).
func Eng(v float64, unit string) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case v == 0:
		return "0 " + unit
	case abs >= 1e9:
		return fmt.Sprintf("%.3g G%s", v/1e9, unit)
	case abs >= 1e6:
		return fmt.Sprintf("%.3g M%s", v/1e6, unit)
	case abs >= 1e3:
		return fmt.Sprintf("%.3g k%s", v/1e3, unit)
	case abs >= 1:
		return fmt.Sprintf("%.3g %s", v, unit)
	case abs >= 1e-3:
		return fmt.Sprintf("%.3g m%s", v*1e3, unit)
	case abs >= 1e-6:
		return fmt.Sprintf("%.3g u%s", v*1e6, unit)
	case abs >= 1e-9:
		return fmt.Sprintf("%.3g n%s", v*1e9, unit)
	case abs >= 1e-12:
		return fmt.Sprintf("%.3g p%s", v*1e12, unit)
	default:
		return fmt.Sprintf("%.3g %s", v, unit)
	}
}

// Rel formats a value relative to a baseline (the paper's universal idiom).
func Rel(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Area formats a silicon area given in square metres as mm^2 (the natural
// unit of this study's footprints). SI prefixes do not compose with squared
// units, so Eng must not be used for areas.
func Area(m2 float64) string {
	return fmt.Sprintf("%.3g mm2", m2*1e6)
}

// The study's one policy for non-finite floats, shared by every output
// surface: text output (CSV, ASCII tables) spells them via FormatFloat
// ("+Inf", "-Inf", "NaN" — the model's "does not apply" values, such as
// SRAM retention or a non-wearing lifetime), and JSON output maps exactly
// the same set to null via FiniteOrNull. A value is rendered "+Inf" in a
// CSV artifact if and only if its JSON form is null.

// FormatFloat is the canonical text form of a float cell: %g, which keeps
// full precision on finite values and spells non-finite ones "+Inf",
// "-Inf" and "NaN".
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// FiniteOrNull is the canonical JSON form of a float cell: a pointer to the
// value, or nil (encoding as null) when the value is NaN or ±Inf.
func FiniteOrNull(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}
