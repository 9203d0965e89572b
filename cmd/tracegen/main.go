// Command tracegen emits a synthetic memory-access trace for one of the 23
// SPECrate 2017 benchmark stand-ins (or a raw generator), either as text —
// one "R 0x<addr>" or "W 0x<addr>" per line — or as the compact .ctrace
// binary format (-format binary). The output feeds llcsim (which
// autodetects either format), POST /v1/workloads, or any external cache
// simulator.
//
//	tracegen -bench mcf -n 100000 -seed 42
//	tracegen -pattern stream -ws 64MiB -writefrac 0.3 -n 1000
//	tracegen -bench mcf -n 1000000 -format binary > mcf.ctrace
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"coldtall/internal/ingest"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark profile name (e.g. mcf, povray); empty for -pattern mode")
	pattern := fs.String("pattern", "chase", "raw mode: stream, chase, chain, or zipf")
	ws := fs.String("ws", "64MiB", "raw mode: working set size (e.g. 512KiB, 64MiB)")
	writeFrac := fs.Float64("writefrac", 0.3, "raw mode: store fraction")
	skew := fs.Float64("skew", 1.4, "raw mode: zipf skew (>1)")
	n := fs.Int("n", 100000, "number of accesses to emit")
	seed := fs.Int64("seed", 1, "PRNG seed")
	format := fs.String("format", "text", "output format: text or binary (.ctrace)")
	list := fs.Bool("list", false, "list available benchmark profiles and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, p := range workload.Profiles() {
			fmt.Fprintf(out, "%-12s %-8s %s\n", p.Name, p.Suite, p.Description)
		}
		return nil
	}

	spec := ingest.GeneratorSpec{Profile: *bench, Pattern: *pattern, WriteFrac: *writeFrac, ZipfSkew: *skew, Seed: *seed}
	if *bench == "" {
		size, err := parseSize(*ws)
		if err != nil {
			return err
		}
		spec.WorkingSetBytes = size
	}
	gen, err := spec.Build()
	if err != nil {
		return err
	}

	switch *format {
	case "text":
		w := bufio.NewWriter(out)
		defer w.Flush()
		var line []byte
		for i := 0; i < *n; i++ {
			line = trace.AppendText(line[:0], gen.Next())
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	case "binary":
		w := trace.NewBinaryWriter(out)
		for i := 0; i < *n; i++ {
			if err := w.Write(gen.Next()); err != nil {
				return err
			}
		}
		return w.Close()
	default:
		return fmt.Errorf("unknown format %q (want text or binary)", *format)
	}
}

// parseSize accepts "4096", "512KiB", "64MiB", "2GiB".
func parseSize(s string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if v == 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	if v > (1<<62)/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return v * mult, nil
}
