package report

import (
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("Demo", "name", "value", "unit")
	tb.AddRow("alpha", "1", "W")
	tb.AddRow("b", "22222", "kilowatt")
	tb.AddRow("c", "3") // empty last cell
	tb.Note = "  a footnote"
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8 (title, header, separator, 3 rows, blank, note):\n%s", len(lines), out)
	}
	if lines[0] != "Demo" || lines[6] != "" || lines[7] != "  a footnote" {
		t.Errorf("title or note misplaced:\n%s", out)
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("line %q ends in a space", l)
		}
	}
	// Each column starts where its separator dashes start, on every line.
	var starts []int
	for i, r := range lines[2] {
		if r == '-' && (i == 0 || lines[2][i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	grid := [][]string{tb.Columns, nil, {"alpha", "1", "W"}, {"b", "22222", "kilowatt"}, {"c", "3", ""}}
	for k, cells := range grid {
		if cells == nil {
			continue // the separator defined the starts
		}
		line := lines[1+k]
		if len(starts) != len(cells) {
			t.Fatalf("separator %q has %d columns, want %d", lines[2], len(starts), len(cells))
		}
		for j, c := range cells {
			if c == "" {
				if len(line) > starts[j] {
					t.Errorf("line %q runs into empty column %d", line, j)
				}
				continue
			}
			if starts[j] > len(line) || !strings.HasPrefix(line[starts[j]:], c) ||
				(starts[j] > 0 && line[starts[j]-1] != ' ') {
				t.Errorf("line %q: column %d (%q) does not start at offset %d", line, j, c, starts[j])
			}
		}
	}
}

func TestTableRowHandling(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")                // short: padded
	tb.AddRow("1", "2", "3", "4") // long: truncated
	rows := tb.Rows()
	if len(rows) != 2 || len(rows[0]) != 3 || len(rows[1]) != 3 {
		t.Fatalf("row normalization broken: %v", rows)
	}
	if rows[0][1] != "" || rows[1][2] != "3" {
		t.Errorf("cell contents wrong: %v", rows)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("1", "two,with comma")
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, `"two,with comma"`) {
		t.Errorf("comma not quoted: %q", out)
	}
}

func TestEngFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0 W",
		1.5:     "1.5 W",
		1500:    "1.5 kW",
		2.5e6:   "2.5 MW",
		3e9:     "3 GW",
		0.002:   "2 mW",
		4e-6:    "4 uW",
		5e-9:    "5 nW",
		6.2e-12: "6.2 pW",
	}
	for v, want := range cases {
		if got := Eng(v, "W"); got != want {
			t.Errorf("Eng(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestRelFormatting(t *testing.T) {
	if got := Rel(0.5); got != "0.500" {
		t.Errorf("Rel(0.5) = %q", got)
	}
	if got := Rel(2500); got != "2.5e+03" {
		t.Errorf("Rel(2500) = %q", got)
	}
	if got := Rel(0); got != "0" {
		t.Errorf("Rel(0) = %q", got)
	}
}

func TestScatterBasics(t *testing.T) {
	s := NewScatter("Fig", "reads/s", "rel power")
	if err := s.Add(Series{Name: "a", X: []float64{1e4, 1e6, 1e8}, Y: []float64{100, 1, 0.01}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Series{Name: "b", X: []float64{1e5}, Y: []float64{10}}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig", "legend:", "* a", "o b", "reads/s", "rel power"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in plot output", want)
		}
	}
	if len(strings.Split(out, "\n")) < 24 {
		t.Error("plot too short")
	}
	for i, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, " ") {
			t.Errorf("plot line %d ends in a space: %q", i, line)
		}
	}
}

func TestScatterRejectsBadSeries(t *testing.T) {
	s := NewScatter("x", "x", "y")
	if err := s.Add(Series{Name: "bad", X: []float64{1}, Y: nil}); err == nil {
		t.Error("mismatched series should fail")
	}
	var sb strings.Builder
	if err := s.Render(&sb); err == nil {
		t.Error("empty plot should fail")
	}
}

func TestScatterHandlesDegenerateRanges(t *testing.T) {
	s := NewScatter("x", "x", "y")
	_ = s.Add(Series{Name: "pt", X: []float64{5}, Y: []float64{5}})
	var sb strings.Builder
	if err := s.Render(&sb); err != nil {
		t.Fatalf("single-point plot should render: %v", err)
	}
}
