package coldtall_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"sort"

	"coldtall"
	"coldtall/internal/cell"
	"coldtall/internal/cryo"
	"coldtall/internal/dram"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// The library walkthrough: each example below is one end-to-end use of
// the API, checked against its output by go test -run Example .

// Characterize one LLC design point, evaluate it under a benchmark's
// traffic, and compare it to the paper's 350 K SRAM baseline: the minimal
// end-to-end use of the API.
func Example_quickstart() {
	study := coldtall.NewStudy()
	exp := study.Explorer()

	// The design point under evaluation: the paper's favourite cryogenic
	// option, 3T-eDRAM at 77 K.
	point := explorer.EDRAMAt(tech.TempCryo77)

	// Array-level characterization (the Destiny/CryoMEM layer).
	arr, err := exp.CharacterizeContext(context.Background(), point)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s array: read %s, write %s, leakage %s, footprint %s\n",
		point.Label,
		report.Eng(arr.ReadLatency, "s"), report.Eng(arr.WriteLatency, "s"),
		report.Eng(arr.LeakagePower, "W"), report.Area(arr.FootprintM2))

	// Application-level evaluation under leela's LLC traffic (the
	// NVMExplorer layer), including the 9.65x cryocooler.
	tr, err := workload.StaticTrafficFor("leela")
	if err != nil {
		log.Fatal(err)
	}
	ev, err := exp.EvaluateContext(context.Background(), point, tr)
	if err != nil {
		log.Fatal(err)
	}
	base, err := exp.BaselineEvaluation(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rel := explorer.Normalize(ev, base)

	fmt.Printf("under %s traffic (%.3g reads/s, %.3g writes/s):\n",
		tr.Benchmark, tr.ReadsPerSec, tr.WritesPerSec)
	fmt.Printf("  device power   %s\n", report.Eng(ev.DevicePower, "W"))
	fmt.Printf("  cooling power  %s\n", report.Eng(ev.CoolingPower, "W"))
	fmt.Printf("  total power    %s (%.4gx the 350K SRAM baseline)\n",
		report.Eng(ev.TotalPower, "W"), rel.RelPower)
	fmt.Printf("  total latency  %.3gx the baseline, slowdown=%v\n",
		rel.RelLatency, ev.Slowdown)
	// Output:
	// 77K 3T-eDRAM array: read 1.44 ns, write 895 ps, leakage 81.9 nW, footprint 10.3 mm2
	// under leela traffic (1.39e+05 reads/s, 3.6e+04 writes/s):
	//   device power   71.1 uW
	//   cooling power  686 uW
	//   total power    757 uW (0.001171x the 350K SRAM baseline)
	//   total latency  0.00192x the baseline, slowdown=false
}

// Temperature as a design knob, the paper's Sec. VI proposal that "the
// ideal temperature to run the processor at may not be exactly room
// temperature or cryogenic temperature". For each SPEC benchmark, sweep
// SRAM and 3T-eDRAM over a fine temperature grid (77-387 K), charge
// cooling below 200 K, and report the total-power-optimal operating
// temperature: low-traffic workloads want to be as cold as possible,
// high-traffic ones prefer warm operation.
func Example_cryoSweep() {
	study := coldtall.NewStudy()
	exp := study.Explorer()

	grid := []float64{77, 100, 125, 150, 175, 200, 225, 250, 275, 300, 325, 350, 387}

	t := report.NewTable(
		"Optimal LLC operating temperature per benchmark (total power incl. cooling below 200K)",
		"benchmark", "reads/s", "best cell", "best T (K)", "total power", "vs 350K SRAM")
	for _, tr := range workload.SortedByReads() {
		type best struct {
			label string
			temp  float64
			power float64
		}
		var b *best
		for _, temp := range grid {
			for _, mk := range []func(float64) explorer.DesignPoint{explorer.SRAMAt, explorer.EDRAMAt} {
				ev, err := exp.EvaluateContext(context.Background(), mk(temp), tr)
				if err != nil {
					log.Fatal(err)
				}
				if b == nil || ev.TotalPower < b.power {
					b = &best{label: ev.Point.Cell.Tech.String(), temp: temp, power: ev.TotalPower}
				}
			}
		}
		warm, err := exp.EvaluateContext(context.Background(), explorer.SRAMAt(350), tr)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(tr.Benchmark, fmt.Sprintf("%.3g", tr.ReadsPerSec),
			b.label, fmt.Sprintf("%.0f", b.temp),
			report.Eng(b.power, "W"), report.Rel(b.power/warm.TotalPower))
	}
	t.Note = "Reading: the coldest point wins until traffic makes the ~10x cooling\n" +
		"overhead dominate; past the crossover the optimum snaps back to 350 K."
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// Optimal LLC operating temperature per benchmark (total power incl. cooling below 200K)
	//   benchmark  reads/s   best cell  best T (K)  total power  vs 350K SRAM
	//   ---------  --------  ---------  ----------  -----------  ------------
	//   exchange2  1.44e+04  3T-eDRAM   225         11.7 uW      1.83e-05
	//   povray     2.51e+04  3T-eDRAM   225         17.1 uW      2.68e-05
	//   leela      1.39e+05  3T-eDRAM   225         74.7 uW      0.000117
	//   imagick    4.75e+05  3T-eDRAM   225         243 uW       0.000382
	//   nab        7.66e+05  3T-eDRAM   225         384 uW       0.000603
	//   deepsjeng  7.8e+05   3T-eDRAM   225         406 uW       0.000637
	//   x264       1.68e+06  3T-eDRAM   225         880 uW       0.00138
	//   blender    3.02e+06  3T-eDRAM   225         1.53 mW      0.0024
	//   perlbench  3.07e+06  3T-eDRAM   225         1.61 mW      0.00251
	//   xalancbmk  7.5e+06   3T-eDRAM   225         3.78 mW      0.00588
	//   parest     8.3e+06   3T-eDRAM   225         4.18 mW      0.0065
	//   gcc        1.02e+07  3T-eDRAM   225         5.54 mW      0.00859
	//   namd       1.41e+07  3T-eDRAM   225         6.95 mW      0.011
	//   cam4       1.66e+07  3T-eDRAM   225         8.36 mW      0.013
	//   wrf        2.94e+07  3T-eDRAM   225         15 mW        0.023
	//   xz         3.48e+07  3T-eDRAM   225         18 mW        0.027
	//   omnetpp    4.16e+07  3T-eDRAM   225         21.7 mW      0.033
	//   cactuBSSN  5.22e+07  3T-eDRAM   225         27 mW        0.040
	//   roms       6.16e+07  3T-eDRAM   225         32 mW        0.047
	//   fotonik3d  8.29e+07  3T-eDRAM   225         42.9 mW      0.062
	//   bwaves     1.27e+08  3T-eDRAM   225         63.1 mW      0.087
	//   lbm        1.49e+08  3T-eDRAM   225         77.1 mW      0.103
	//   mcf        1.79e+08  3T-eDRAM   225         72.8 mW      0.098
	//
	// Reading: the coldest point wins until traffic makes the ~10x cooling
	// overhead dominate; past the crossover the optimum snaps back to 350 K.
}

// Walk the 3D eNVM design space the way a cache architect would:
// characterize every (technology, tentpole corner, die count) point, print
// the Fig. 6-style array landscape, then pick winners per design target
// and check their endurance-limited lifetime under omnetpp's writes.
func Example_envm3D() {
	study := coldtall.NewStudy()
	exp := study.Explorer()

	points, err := explorer.ENVMSweep()
	if err != nil {
		log.Fatal(err)
	}
	base, err := exp.CharacterizeContext(context.Background(), explorer.Baseline())
	if err != nil {
		log.Fatal(err)
	}

	// The array landscape, relative to 1-die SRAM (Fig. 6).
	t := report.NewTable("3D eNVM array landscape at 350K (relative to 1-die SRAM)",
		"design point", "area", "rd lat", "wr lat", "rd E/acc", "wr E/acc", "leakage")
	for _, p := range points {
		r, err := exp.CharacterizeContext(context.Background(), p)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(p.Label,
			report.Rel(r.FootprintM2/base.FootprintM2),
			report.Rel(r.ReadLatency/base.ReadLatency),
			report.Rel(r.WriteLatency/base.WriteLatency),
			report.Rel(r.ReadEnergy/base.ReadEnergy),
			report.Rel(r.WriteEnergy/base.WriteEnergy),
			report.Rel(r.LeakagePower/base.LeakagePower))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Winners per design target, with lifetimes under a mixed workload.
	tr, err := workload.StaticTrafficFor("omnetpp") // a busy, write-bearing benchmark
	if err != nil {
		log.Fatal(err)
	}
	type row struct {
		label    string
		power    float64
		latency  float64
		area     float64
		lifetime float64
	}
	var rows []row
	for _, p := range points {
		ev, err := exp.EvaluateContext(context.Background(), p, tr)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{
			label:    p.Label,
			power:    ev.TotalPower,
			latency:  ev.AggregateLatency,
			area:     ev.Array.FootprintM2,
			lifetime: ev.LifetimeYears,
		})
	}
	pick := func(metric func(row) float64) row {
		best := rows[0]
		for _, r := range rows[1:] {
			if metric(r) < metric(best) {
				best = r
			}
		}
		return best
	}
	w := report.NewTable(fmt.Sprintf("Winners under %s traffic (%.3g reads/s, %.3g writes/s)",
		tr.Benchmark, tr.ReadsPerSec, tr.WritesPerSec),
		"target", "winner", "value", "lifetime")
	p := pick(func(r row) float64 { return r.power })
	w.AddRow("power", p.label, report.Eng(p.power, "W"), years(p.lifetime))
	l := pick(func(r row) float64 { return r.latency })
	w.AddRow("performance", l.label, fmt.Sprintf("%.4g", l.latency), years(l.lifetime))
	a := pick(func(r row) float64 { return r.area })
	w.AddRow("area", a.label, report.Area(a.area), years(a.lifetime))
	fmt.Println()
	if err := w.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Lifetime ranking: which points survive a decade of this traffic?
	sort.Slice(rows, func(i, j int) bool { return rows[i].lifetime < rows[j].lifetime })
	fmt.Println("\nshortest-lived points under this write stream:")
	for _, r := range rows[:5] {
		fmt.Printf("  %-28s %s\n", r.label, years(r.lifetime))
	}
	// Output:
	// 3D eNVM array landscape at 350K (relative to 1-die SRAM)
	//   design point                 area   rd lat  wr lat  rd E/acc  wr E/acc  leakage
	//   ---------------------------  -----  ------  ------  --------  --------  -------
	//   1-die SRAM                   1.000  1.000   1.000   1.000     1.000     1.000
	//   1-die PCM (optimistic)       0.094  0.289   7.171   0.495     3.907     0.046
	//   1-die PCM (pessimistic)      0.253  1.212   58.504  0.941     43.562    0.143
	//   1-die STT-RAM (optimistic)   0.194  0.483   0.464   0.844     4.726     0.046
	//   1-die STT-RAM (pessimistic)  0.431  1.016   5.155   1.178     6.815     0.110
	//   1-die RRAM (optimistic)      0.169  0.501   2.147   0.735     4.071     0.048
	//   1-die RRAM (pessimistic)     0.337  1.050   23.691  1.023     25.192    0.097
	//   2-die SRAM                   0.530  0.646   0.681   0.732     0.728     1.001
	//   2-die PCM (optimistic)       0.080  0.256   7.139   0.455     3.866     0.046
	//   2-die PCM (pessimistic)      0.170  1.118   58.421  0.825     43.444    0.143
	//   2-die STT-RAM (optimistic)   0.129  0.401   0.392   0.739     4.620     0.046
	//   2-die STT-RAM (pessimistic)  0.256  0.856   5.014   1.009     6.644     0.110
	//   2-die RRAM (optimistic)      0.116  0.430   2.084   0.631     3.965     0.048
	//   2-die RRAM (pessimistic)     0.206  0.921   23.577  0.878     25.044    0.097
	//   4-die SRAM                   0.291  0.438   0.485   0.528     0.527     1.011
	//   4-die PCM (optimistic)       0.070  0.235   7.120   0.424     3.835     0.046
	//   4-die PCM (pessimistic)      0.127  1.053   58.363  0.736     43.353    0.143
	//   4-die STT-RAM (optimistic)   0.095  0.345   0.342   0.660     4.540     0.046
	//   4-die STT-RAM (pessimistic)  0.168  0.754   4.919   0.890     6.523     0.111
	//   4-die RRAM (optimistic)      0.089  0.381   2.040   0.572     3.905     0.048
	//   4-die RRAM (pessimistic)     0.141  0.836   23.498  0.776     24.940    0.098
	//   8-die SRAM                   0.170  0.318   0.379   0.397     0.394     1.011
	//   8-die PCM (optimistic)       0.066  0.224   7.111   0.411     3.821     0.046
	//   8-die PCM (pessimistic)      0.106  1.012   58.324  0.692     43.308    0.144
	//   8-die STT-RAM (optimistic)   0.078  0.313   0.313   0.621     4.500     0.046
	//   8-die STT-RAM (pessimistic)  0.124  0.688   4.861   0.804     6.435     0.111
	//   8-die RRAM (optimistic)      0.075  0.353   2.016   0.538     3.870     0.048
	//   8-die RRAM (pessimistic)     0.107  0.781   23.449  0.702     24.866    0.098
	//
	// Winners under omnetpp traffic (4.16e+07 reads/s, 1.25e+07 writes/s)
	//   target       winner                      value     lifetime
	//   -----------  --------------------------  --------  --------------
	//   power        8-die PCM (optimistic)      66.1 mW   0.7 years
	//   performance  8-die STT-RAM (optimistic)  0.1156    664547.4 years
	//   area         8-die PCM (optimistic)      1.28 mm2  0.7 years
	//
	// shortest-lived points under this write stream:
	//   2-die RRAM (pessimistic)     0.0 years
	//   1-die PCM (pessimistic)      0.0 years
	//   8-die PCM (pessimistic)      0.0 years
	//   4-die RRAM (pessimistic)     0.0 years
	//   1-die RRAM (pessimistic)     0.0 years
}

// The downstream-user scenario: you know your application's LLC traffic
// (here 2e6 reads/s and 5e5 writes/s) and want a technology
// recommendation per design target under the paper's 100 kW cryocooler,
// i.e. the paper's title question answered for your workload.
func Example_llcDesigner() {
	tr := workload.Traffic{Benchmark: "custom", ReadsPerSec: 2e6, WritesPerSec: 5e5}
	cooling := cryo.DefaultCooling()
	study, err := coldtall.NewStudyWithCooling(cooling)
	if err != nil {
		log.Fatal(err)
	}
	exp := study.Explorer()

	band := workload.BandOf(tr.ReadsPerSec)
	fmt.Printf("workload: %.3g reads/s, %.3g writes/s -> %s traffic band\n",
		tr.ReadsPerSec, tr.WritesPerSec, band)
	fmt.Printf("cooling:  %s-class cryocooler (%.2f W/W below 200 K)\n\n",
		cooling.Class, cooling.Class.Overhead())

	points, err := explorer.TableIICandidates()
	if err != nil {
		log.Fatal(err)
	}
	var evals []explorer.Evaluation
	for _, p := range points {
		ev, err := exp.EvaluateContext(context.Background(), p, tr)
		if err != nil {
			log.Fatal(err)
		}
		evals = append(evals, ev)
	}

	recommend := func(name string, metric func(explorer.Evaluation) float64, format func(float64) string) {
		best := evals[0]
		for _, ev := range evals[1:] {
			if metric(ev) < metric(best) {
				best = ev
			}
		}
		note := ""
		if best.LifetimeYears < explorer.EnduranceThresholdYears {
			note = fmt.Sprintf("  [endurance: %.1f years under this write stream]", best.LifetimeYears)
		}
		if best.Slowdown {
			note += "  [warning: slower than the 350K SRAM baseline]"
		}
		fmt.Printf("  %-12s %-26s %s%s\n", name, best.Point.Label, format(metric(best)), note)
	}
	fmt.Println("recommendations:")
	recommend("power", func(ev explorer.Evaluation) float64 { return ev.TotalPower },
		func(v float64) string { return report.Eng(v, "W") })
	recommend("performance", func(ev explorer.Evaluation) float64 { return ev.AggregateLatency },
		func(v float64) string { return report.Eng(v, "s/s") })
	recommend("area", func(ev explorer.Evaluation) float64 { return ev.Array.FootprintM2 }, report.Area)

	// The full power ranking for context.
	base, err := exp.EvaluateContext(context.Background(), explorer.Baseline(), tr)
	if err != nil {
		log.Fatal(err)
	}
	sort.SliceStable(evals, func(i, j int) bool { return evals[i].TotalPower < evals[j].TotalPower })
	fmt.Println("\nfull power ranking (total LLC power including cooling):")
	t := report.NewTable("", "design point", "total power", "rel latency", "lifetime")
	for _, ev := range evals {
		t.AddRow(ev.Point.Label, report.Eng(ev.TotalPower, "W"),
			report.Rel(ev.AggregateLatency/base.AggregateLatency), years(ev.LifetimeYears))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// workload: 2e+06 reads/s, 5e+05 writes/s -> 5e4-8e6 traffic band
	// cooling:  100kW-class cryocooler (9.65 W/W below 200 K)
	//
	// recommendations:
	//   power        77K 3T-eDRAM               10.8 mW
	//   performance  77K 3T-eDRAM               3.33 ms/s
	//   area         8-die PCM (optimistic)     1.28 mm2  [endurance: 16.6 years under this write stream]  [warning: slower than the 350K SRAM baseline]
	//
	// full power ranking (total LLC power including cooling):
	//   design point                total power  rel latency  lifetime
	//   --------------------------  -----------  -----------  ----------------
	//   77K 3T-eDRAM                10.8 mW      0.192        no wear-out
	//   77K SRAM                    15 mW        0.270        no wear-out
	//   1-die PCM (optimistic)      30.7 mW      1.141        16.6 years
	//   2-die PCM (optimistic)      30.9 mW      1.108        16.6 years
	//   4-die PCM (optimistic)      30.9 mW      1.088        16.6 years
	//   8-die PCM (optimistic)      31 mW        1.077        16.6 years
	//   4-die STT-RAM (optimistic)  31.4 mW      0.345        16613684.2 years
	//   2-die STT-RAM (optimistic)  31.4 mW      0.400        16613684.2 years
	//   8-die STT-RAM (optimistic)  31.5 mW      0.313        16613684.2 years
	//   1-die STT-RAM (optimistic)  31.5 mW      0.480        16613684.2 years
	//   4-die RRAM (optimistic)     32.5 mW      0.586        166.1 years
	//   2-die RRAM (optimistic)     32.5 mW      0.635        166.1 years
	//   8-die RRAM (optimistic)     32.6 mW      0.559        166.1 years
	//   1-die RRAM (optimistic)     32.6 mW      0.705        166.1 years
	//   350K SRAM                   639 mW       1.000        no wear-out
	//   2-die SRAM                  639 mW       0.650        no wear-out
	//   8-die SRAM                  645 mW       0.325        no wear-out
	//   4-die SRAM                  645 mW       0.444        no wear-out
}

// The full cross-stack pipeline for mcf: the synthetic workload through
// the cache hierarchy, the chosen LLC through the array model, the misses
// through the DRAM model's latency, ending in the numbers an architect
// decides by: AMAT, IPC, and LLC power (cooling included).
func Example_memorySystem() {
	const bench = "mcf"
	study := coldtall.NewStudy()
	exp := study.Explorer()

	prof, err := workload.ProfileByName(bench)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := workload.StaticTrafficFor(bench)
	if err != nil {
		log.Fatal(err)
	}

	warmMem, err := dram.New(dram.DDR4(), 300)
	if err != nil {
		log.Fatal(err)
	}
	coldMem, err := dram.New(dram.DDR4(), 77)
	if err != nil {
		log.Fatal(err)
	}

	type candidate struct {
		point explorer.DesignPoint
		mem   dram.Model
	}
	candidates := []candidate{
		{explorer.Baseline(), warmMem},
		{explorer.EDRAMAt(tech.TempCryo77), warmMem},
		{explorer.EDRAMAt(tech.TempCryo77), coldMem}, // the full cryogenic system
	}
	for _, tc := range []cell.Technology{cell.STTRAM, cell.PCM} {
		p, err := explorer.Stacked(tc, cell.Optimistic, 8)
		if err != nil {
			log.Fatal(err)
		}
		candidates = append(candidates, candidate{p, warmMem})
	}

	t := report.NewTable(
		fmt.Sprintf("Memory system under %s (%.3g LLC reads/s, %.3g writes/s)",
			bench, tr.ReadsPerSec, tr.WritesPerSec),
		"LLC", "DRAM T", "AMAT", "rel IPC", "LLC power")
	for _, cand := range candidates {
		imp, err := exp.SystemImpact(context.Background(), cand.point, prof, cand.mem)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := exp.EvaluateContext(context.Background(), cand.point, tr)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(cand.point.Label,
			fmt.Sprintf("%.0fK", cand.mem.Temperature()),
			report.Eng(imp.AMATSeconds, "s"),
			fmt.Sprintf("%.4f", imp.RelIPC),
			report.Eng(ev.TotalPower, "W"))
	}
	t.Note = "Reading: the cryogenic LLC buys IPC on memory-bound workloads; whether its\n" +
		"power (cooling included) agrees depends on the traffic band — the paper's thesis."
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// Memory system under mcf (1.79e+08 LLC reads/s, 1.8e+06 writes/s)
	//   LLC                         DRAM T  AMAT     rel IPC  LLC power
	//   --------------------------  ------  -------  -------  ---------
	//   350K SRAM                   300K    2.3 ns   1.0000   740 mW
	//   77K 3T-eDRAM                300K    2.11 ns  1.1410   783 mW
	//   77K 3T-eDRAM                77K     1.5 ns   1.1559   783 mW
	//   8-die STT-RAM (optimistic)  300K    2.14 ns  1.1171   97.4 mW
	//   8-die PCM (optimistic)      300K    2.12 ns  1.1342   75.3 mW
	//
	// Reading: the cryogenic LLC buys IPC on memory-bound workloads; whether its
	// power (cooling included) agrees depends on the traffic band — the paper's thesis.
}

// years formats an endurance-limited lifetime.
func years(v float64) string {
	if math.IsInf(v, 1) {
		return "no wear-out"
	}
	return fmt.Sprintf("%.1f years", v)
}
