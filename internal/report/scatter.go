package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one named point set of a figure.
type Series struct {
	// Name labels the series (e.g. "77K 3T-eDRAM").
	Name string
	// Marker is the single character plotted; chosen automatically by
	// Scatter when zero.
	Marker byte
	// X and Y are the coordinates (same length).
	X, Y []float64
}

// Scatter renders a log-log ASCII scatter plot — the idiom of the paper's
// Figs. 5 and 7 (traffic on X, relative power/latency on Y).
type Scatter struct {
	// Title, XLabel and YLabel annotate the plot.
	Title, XLabel, YLabel string
	// Width and Height are the grid size in characters (defaults 72x24).
	Width, Height int
	// LogX and LogY select log-scaled axes (both default true via
	// NewScatter).
	LogX, LogY bool
	series     []Series
}

// NewScatter creates a log-log scatter plot.
func NewScatter(title, xlabel, ylabel string) *Scatter {
	return &Scatter{
		Title: title, XLabel: xlabel, YLabel: ylabel,
		Width: 72, Height: 24, LogX: true, LogY: true,
	}
}

// markers cycles through distinguishable glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '=', '~'}

// Add appends a series; mismatched X/Y lengths are an error.
func (s *Scatter) Add(series Series) error {
	if len(series.X) != len(series.Y) {
		return fmt.Errorf("report: series %q has %d X but %d Y values",
			series.Name, len(series.X), len(series.Y))
	}
	if series.Marker == 0 {
		series.Marker = markers[len(s.series)%len(markers)]
	}
	s.series = append(s.series, series)
	return nil
}

// Render draws the plot.
func (s *Scatter) Render(w io.Writer) error {
	if len(s.series) == 0 {
		return fmt.Errorf("report: nothing to plot")
	}
	tx := func(v float64) float64 { return v }
	ty := func(v float64) float64 { return v }
	if s.LogX {
		tx = math.Log10
	}
	if s.LogY {
		ty = math.Log10
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, sr := range s.series {
		for i := range sr.X {
			x, y := tx(sr.X[i]), ty(sr.Y[i])
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if minX > maxX || minY > maxY {
		return fmt.Errorf("report: no finite points to plot")
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, s.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", s.Width))
	}
	for _, sr := range s.series {
		for i := range sr.X {
			x, y := tx(sr.X[i]), ty(sr.Y[i])
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			col := int((x - minX) / (maxX - minX) * float64(s.Width-1))
			row := s.Height - 1 - int((y-minY)/(maxY-minY)*float64(s.Height-1))
			grid[row][col] = sr.Marker
		}
	}
	if s.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", s.Title); err != nil {
			return err
		}
	}
	fmtAxis := func(v float64, log bool) string {
		if log {
			return fmt.Sprintf("%.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%.3g", v)
	}
	for i, line := range grid {
		label := strings.Repeat(" ", 10)
		switch i {
		case 0:
			label = pad(fmtAxis(maxY, s.LogY), 10)
		case s.Height - 1:
			label = pad(fmtAxis(minY, s.LogY), 10)
		case s.Height / 2:
			label = pad(fmtAxis((minY+maxY)/2, s.LogY), 10)
		}
		if _, err := fmt.Fprintf(w, "%s|%s\n", label, strings.TrimRight(string(line), " ")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s+%s\n", strings.Repeat(" ", 10), strings.Repeat("-", s.Width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s%s%s\n", strings.Repeat(" ", 11),
		pad(fmtAxis(minX, s.LogX), s.Width-8), fmtAxis(maxX, s.LogX)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%sx: %s   y: %s\n", strings.Repeat(" ", 11), s.XLabel, s.YLabel); err != nil {
		return err
	}
	// Legend, stable order.
	legend := make([]string, len(s.series))
	for i, sr := range s.series {
		legend[i] = fmt.Sprintf("%c %s", sr.Marker, sr.Name)
	}
	sort.Strings(legend)
	_, err := fmt.Fprintf(w, "%slegend: %s\n", strings.Repeat(" ", 11), strings.Join(legend, " | "))
	return err
}
