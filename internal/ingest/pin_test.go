package ingest

import (
	"context"
	"encoding/json"
	"testing"

	"coldtall/internal/signature"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// benchClasses are BenchmarkIngestRun's trace classes: a read-heavy zipf
// (1M accesses) whose hot set fits the LLC, a write-heavy stream (512k)
// over 16x the LLC, and a pointer chase (512k) over 4x the LLC.
var benchClasses = []struct {
	name     string
	accesses int
	gen      func(seed int64) (trace.Generator, error)
}{
	{"zipf", 1 << 20, func(seed int64) (trace.Generator, error) {
		return trace.NewZipf(trace.Region{Base: 1 << 30, Size: 8 << 20}, 1.15, 0.075, seed)
	}},
	{"stream", 1 << 19, func(seed int64) (trace.Generator, error) {
		return trace.NewStream(trace.Region{Base: 1 << 30, Size: 256 << 20}, 1, 0.7, seed)
	}},
	{"chase", 1 << 19, func(seed int64) (trace.Generator, error) {
		return trace.NewPointerChase(trace.Region{Base: 1 << 30, Size: 64 << 20}, 0.15, seed)
	}},
}

// encodeClass returns the canonical .ctrace bytes of class i under seed.
func encodeClass(tb testing.TB, i int, seed int64) []byte {
	tb.Helper()
	c := benchClasses[i]
	g, err := c.gen(seed)
	if err != nil {
		tb.Fatal(err)
	}
	return trace.EncodeBinary(trace.Collect(g, c.accesses))
}

// TestIngestBytePin pins what one ingestion of each benchmark class
// derives: the measurement-window counters, the signature's content
// address and the persisted workload| record. The constants were
// recorded before the replayer fed its signature observer in a pass of
// its own, so they guard that reordering.
func TestIngestBytePin(t *testing.T) {
	pins := map[string]struct{ stats, sig, record string }{
		"zipf": {
			stats:  `{"names":["L1D","L2","LLC"],"levels":[{"Reads":727295,"Writes":59137,"ReadMisses":235525,"WriteMisses":19041,"Writebacks":25077},{"Reads":254566,"Writes":25077,"ReadMisses":105817,"WriteMisses":90,"Writebacks":11757},{"Reads":105907,"Writes":11757,"ReadMisses":49053,"WriteMisses":542,"Writebacks":4657}],"mem_reads":49595,"mem_writes":4657,"prefetches":0,"accesses":786432}`,
			sig:    "2fda3cdad1bb2973562a5c920a01a9381fae089d0d937b4044f28f38a17b4db9",
			record: `{"name":"zipf","kind":"trace","traffic":{"benchmark":"zipf","reads_per_sec":1777613830.566406,"writes_per_sec":197337341.30859372},"accesses":1048576,"trace_sha256":"02197e394a4007cf041e0869164d84269d292afa3ea09017e10f490d34bc1d86","mem_ops_per_kilo_instr":330,"ipc":1}`,
		},
		"stream": {
			stats:  `{"names":["L1D","L2","LLC"],"levels":[{"Reads":118248,"Writes":274968,"ReadMisses":118248,"WriteMisses":274968,"Writebacks":274963},{"Reads":393216,"Writes":274963,"ReadMisses":393216,"WriteMisses":0,"Writebacks":274990},{"Reads":393216,"Writes":274990,"ReadMisses":393216,"WriteMisses":0,"Writebacks":274997}],"mem_reads":393216,"mem_writes":274997,"prefetches":0,"accesses":393216}`,
			sig:    "582ca9c047e3d0417c146187b3820a8567627c1d848096fb0c2827217bb735ba",
			record: `{"name":"stream","kind":"trace","traffic":{"benchmark":"stream","reads_per_sec":13199999999.999998,"writes_per_sec":9231231689.453123},"accesses":524288,"trace_sha256":"b09ed2a515bd07c1e2426ecfc7118093af396c86d80d589b7dfc0a5a7926deec","mem_ops_per_kilo_instr":330,"ipc":1}`,
		},
		"chase": {
			stats:  `{"names":["L1D","L2","LLC"],"levels":[{"Reads":334408,"Writes":58808,"ReadMisses":334248,"WriteMisses":58783,"Writebacks":58809},{"Reads":393031,"Writes":58809,"ReadMisses":390131,"WriteMisses":0,"Writebacks":58751},{"Reads":390131,"Writes":58751,"ReadMisses":381091,"WriteMisses":0,"Writebacks":58559}],"mem_reads":381091,"mem_writes":58559,"prefetches":0,"accesses":393216}`,
			sig:    "5f64ac3fba473b32732258d8ef402473f02090aa807188a0243bec65ce64ebad",
			record: `{"name":"chase","kind":"trace","traffic":{"benchmark":"chase","reads_per_sec":13096438598.63281,"writes_per_sec":1972232055.6640623},"accesses":524288,"trace_sha256":"8d7e466600cb02c7af07071f82bf70a42632cc8e46f3c195853a22e3e056f08f","mem_ops_per_kilo_instr":330,"ipc":1}`,
		},
	}
	for i, c := range benchClasses {
		st := testStore(t)
		res, err := Run(context.Background(), Spec{Name: c.name, Trace: encodeClass(t, i, 11)},
			Options{Workloads: workload.NewRegistry(), Store: st, Sigs: signature.NewIndex()})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := st.Get(WorkloadKeyPrefix + c.name)
		if !ok {
			t.Fatalf("%s: no workload record", c.name)
		}
		want := pins[c.name]
		if string(stats) != want.stats {
			t.Errorf("%s: window stats\n got %s\nwant %s", c.name, stats, want.stats)
		}
		if res.SignatureSHA256 != want.sig {
			t.Errorf("%s: signature %s, want %s", c.name, res.SignatureSHA256, want.sig)
		}
		if string(rec) != want.record {
			t.Errorf("%s: workload record\n got %s\nwant %s", c.name, rec, want.record)
		}
	}
}
