package artifact

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"coldtall/internal/report"
)

// Render builds the named artifact and writes its human form: the titled
// ASCII table, the descriptor's note (if any), and — when plot is true —
// each scatter hint as a log-log ASCII plot. This is the one renderer every
// registry artifact shares; what used to be a bespoke renderer per figure
// is now a descriptor.
func (r *Registry[P]) Render(ctx context.Context, p P, name string, w io.Writer, plot bool) error {
	t, err := r.Build(ctx, p, name)
	if err != nil {
		return err
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if !plot {
		return nil
	}
	d, _ := r.Lookup(name)
	for _, sc := range d.Scatters {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := renderScatter(w, t, sc); err != nil {
			return err
		}
	}
	return nil
}

// renderScatter projects the table onto one scatter hint: X/Y from the
// named Float columns, one series per distinct series-column value in
// first-appearance order.
func renderScatter(w io.Writer, t *report.Table, sc Scatter) error {
	idx := make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		idx[c] = i
	}
	xi, yi, si := idx[sc.XCol], idx[sc.YCol], idx[sc.SeriesCol]
	order := []string{}
	points := map[string][2][]float64{}
	for _, row := range t.Rows() {
		label := row[si]
		x, err := strconv.ParseFloat(row[xi], 64)
		if err != nil {
			return fmt.Errorf("artifact: scatter %q: column %s cell %q: %w", sc.Title, sc.XCol, row[xi], err)
		}
		y, err := strconv.ParseFloat(row[yi], 64)
		if err != nil {
			return fmt.Errorf("artifact: scatter %q: column %s cell %q: %w", sc.Title, sc.YCol, row[yi], err)
		}
		if _, seen := points[label]; !seen {
			order = append(order, label)
		}
		ps := points[label]
		ps[0] = append(ps[0], x)
		ps[1] = append(ps[1], y)
		points[label] = ps
	}
	plot := report.NewScatter(sc.Title, sc.XLabel, sc.YLabel)
	for _, label := range order {
		ps := points[label]
		if err := plot.Add(report.Series{Name: label, X: ps[0], Y: ps[1]}); err != nil {
			return err
		}
	}
	return plot.Render(w)
}
