package coldtall_test

import (
	"fmt"
	"log"
	"strings"

	"coldtall"
)

// Table I is static configuration: the CPU model every simulation uses.
func ExampleTable1() {
	for _, row := range coldtall.Table1() {
		if row.Parameter == "Frequency" || row.Parameter == "L3$" {
			fmt.Printf("%s: %s\n", row.Parameter, row.Value)
		}
	}
	// Output:
	// Frequency: 5 GHz
	// L3$: shared 16 MiB, 16 ways
}

// A study regenerates the paper's artifacts; Table II names the optimal LLC
// per traffic band.
func ExampleStudy_Table2() {
	study := coldtall.NewStudy()
	rows, err := study.Table2()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		if r.Objective == "power" {
			fmt.Printf("%s -> %s\n", r.Band, r.Winner)
		}
	}
	// Output:
	// <5e4 -> 77K 3T-eDRAM
	// 5e4-8e6 -> 4-die PCM (optimistic)
	// >8e6 -> 8-die PCM (optimistic)
}

// Custom studies are JSON-driven, NVMExplorer-style.
func ExampleLoadStudyConfig() {
	cfg, err := coldtall.LoadStudyConfig(strings.NewReader(`{
		"points":    [{"technology": "3T-eDRAM", "temperature_k": 77}],
		"workloads": [{"benchmark": "leela"}]
	}`))
	if err != nil {
		log.Fatal(err)
	}
	rows, err := coldtall.NewStudy().RunConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d point(s) x %d workload(s) -> %d result(s)\n",
		len(cfg.Points), len(cfg.Workloads), len(rows))
	fmt.Printf("cryogenic win on leela: %v\n", rows[0].RelTotalPower < 0.01)
	// Output:
	// 1 point(s) x 1 workload(s) -> 1 result(s)
	// cryogenic win on leela: true
}

// BandRepresentatives names the benchmark each Table II band is judged by.
func ExampleBandRepresentatives() {
	fmt.Println(strings.Join(coldtall.BandRepresentatives(), ", "))
	// Output:
	// povray, xalancbmk, mcf
}
