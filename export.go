package coldtall

import (
	"fmt"
	"os"
	"path/filepath"

	"coldtall/internal/parallel"
	"coldtall/internal/report"
)

// Export writes every registry artifact as a CSV file into dir (created if
// missing): fig1.csv, fig3.csv, fig4.csv, fig5.csv, fig6.csv, fig7.csv,
// table1.csv, table2.csv, cooling.csv, coldtall.csv, reliability.csv —
// ready for external plotting against the paper's figures. The file set is
// the artifact registry in paper order; there is no per-artifact export
// code to keep in sync.
//
// Independent artifacts build concurrently on the study's worker pool
// (SetParallelism); the files themselves are written serially in paper
// order, and their contents are identical at any parallelism setting.
func (s *Study) Export(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	descriptors := artifacts.Descriptors()
	tables, err := parallel.MapContext(s.context(), len(descriptors), s.exp.Workers, func(i int) (*report.Table, error) {
		return artifacts.Build(s.context(), s, descriptors[i].Name)
	})
	if err != nil {
		return err
	}
	for i, d := range descriptors {
		f, err := os.Create(filepath.Join(dir, d.File))
		if err != nil {
			return err
		}
		if err := tables[i].RenderCSV(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", d.File, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
