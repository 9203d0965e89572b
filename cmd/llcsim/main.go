// Command llcsim replays a memory-access trace through the Table I cache
// hierarchy and reports per-level statistics plus the extrapolated
// continuous-operation LLC traffic the paper plots benchmarks by. The
// input format is autodetected: tracegen's text format (one "R 0x<addr>"
// or "W 0x<addr>" per line) or the compact .ctrace binary format, on
// stdin or from a file.
//
//	tracegen -bench mcf -n 500000 | llcsim -bench mcf
//	tracegen -bench mcf -n 500000 -format binary | llcsim -bench mcf
//	llcsim -trace mcf.ctrace -copies 8
//	llcsim -trace mcf.trace -dump mcf.ctrace   # convert while simulating
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"coldtall/internal/report"
	"coldtall/internal/sim"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "llcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("llcsim", flag.ContinueOnError)
	tracePath := fs.String("trace", "-", "trace file path (text or .ctrace, autodetected), or - for stdin")
	copies := fs.Int("copies", 8, "SPECrate copies sharing the LLC")
	bench := fs.String("bench", "", "benchmark profile for time extrapolation (IPC, memory intensity); empty reports counts only")
	dump := fs.String("dump", "", "also write the trace in canonical .ctrace binary form to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	cfg := sim.TableIConfig()
	cfg.SharedCopies = *copies
	eng, err := sim.NewReplayer(cfg)
	if err != nil {
		return err
	}

	reader := trace.NewReader(r)
	if *dump != "" {
		// Conversion mode buffers the stream so the canonical encoding and
		// the simulation read the same accesses exactly once from the input.
		accesses, err := trace.ReadAll(reader)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dump, trace.EncodeBinary(accesses), 0o644); err != nil {
			return err
		}
		if err := eng.Replay(context.Background(), accesses); err != nil {
			return err
		}
		return render(stdout, eng, uint64(len(accesses)), *copies, *bench)
	}
	n, err := eng.ReplayReader(context.Background(), reader, 0, nil)
	if err != nil {
		return err
	}
	return render(stdout, eng, n, *copies, *bench)
}

// render prints the per-level table and, with -bench, the extrapolated
// traffic rates.
func render(stdout io.Writer, eng *sim.Replayer, n uint64, copies int, bench string) error {
	stats := eng.Snapshot()
	t := report.NewTable(fmt.Sprintf("llcsim: %d accesses through the Table I hierarchy", n),
		"level", "reads", "writes", "read miss", "write miss", "writebacks", "miss rate")
	for i, s := range stats.Levels {
		t.AddRow(stats.Names[i],
			fmt.Sprintf("%d", s.Reads), fmt.Sprintf("%d", s.Writes),
			fmt.Sprintf("%d", s.ReadMisses), fmt.Sprintf("%d", s.WriteMisses),
			fmt.Sprintf("%d", s.Writebacks), fmt.Sprintf("%.4f", s.MissRate()))
	}
	t.AddRow("memory", fmt.Sprintf("%d", stats.MemReads), fmt.Sprintf("%d", stats.MemWrites), "-", "-", "-", "-")
	if err := t.Render(stdout); err != nil {
		return err
	}

	if bench == "" {
		return nil
	}
	p, err := workload.ProfileByName(bench)
	if err != nil {
		return err
	}
	llc := stats.LLC()
	// The shared calibration formula assumes the paper's 8-core client CPU;
	// -copies rescales its per-chip rates.
	tr := workload.Extrapolate(p.Name, llc.Reads, llc.Writes, n, p.MemOpsPerKiloInstr, p.IPC)
	scale := float64(copies) / workload.Cores
	fmt.Fprintf(stdout, "\nextrapolated continuous-operation LLC traffic (%d copies at %.0f GHz, %s-class core):\n",
		copies, workload.DefaultFrequencyHz/1e9, p.Name)
	fmt.Fprintf(stdout, "  reads/s  = %.3g\n", tr.ReadsPerSec*scale)
	fmt.Fprintf(stdout, "  writes/s = %.3g\n", tr.WritesPerSec*scale)
	return nil
}
