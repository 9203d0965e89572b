package e2e

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// smoke: a store-backed server answers a characterization cold and then
// from the response cache, runs an async job through the CLI client whose
// artifact is byte-identical to the synchronous endpoint, and exposes its
// metrics.
func smoke(t *testing.T) {
	s := boot(t, "-store-dir", filepath.Join(t.TempDir(), "store"))
	if body := s.fetch("POST", "/v1/characterize", []byte(`{"cell":"SRAM"}`)); !bytes.Contains(body, []byte("read_latency_s")) {
		t.Fatalf("characterize answered %s", body)
	}
	if resp, _ := s.do("POST", "/v1/characterize", "", []byte(`{"cell":"SRAM"}`)); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeated characterization: X-Cache %q, want hit", resp.Header.Get("X-Cache"))
	}
	if line := firstLine(s.get("/v1/tables/1?format=csv")); !strings.Contains(line, "parameter") {
		t.Fatalf("table 1 CSV header %q", line)
	}

	id := jobID(t, s.cli("jobs", "submit", "table1"))
	if job := s.cli("jobs", "-poll", "100ms", "wait", id); !bytes.Equal(job, s.get("/v1/artifacts/table1?format=csv")) {
		t.Fatal("async artifact diverged from the synchronous endpoint")
	}
	if list := s.cli("jobs", "list"); !bytes.Contains(list, []byte(id)) {
		t.Fatalf("jobs list omits %s:\n%s", id, list)
	}

	metrics := s.get("/metrics")
	for _, series := range []string{"coldtall_request_seconds_count", "coldtall_cache_hits_total",
		"coldtall_http_inflight", "coldtall_jobs_running", "coldtall_store_entries", "coldtall_cache_evictions_total"} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	s.stop()
}

// artifacts: `coldtall artifacts list` and GET /v1/artifacts enumerate
// the registry identically, and `coldtall openapi` is byte-identical to
// the served /v1/openapi.json.
func artifacts(t *testing.T) {
	list, _ := run(t, "coldtall", "artifacts", "list")
	var names []string // first column, below the title, header and rule
	for i, line := range strings.Split(string(list), "\n") {
		if f := strings.Fields(line); i >= 3 && len(f) > 0 {
			names = append(names, f[0])
		}
	}
	if len(names) == 0 {
		t.Fatalf("CLI catalog is empty:\n%s", list)
	}

	s := boot(t)
	var catalog struct{ Artifacts []struct{ Name string } }
	decode(t, s.get("/v1/artifacts"), &catalog)
	var served []string
	for _, a := range catalog.Artifacts {
		served = append(served, a.Name)
	}
	if !slices.Equal(names, served) {
		t.Fatalf("catalogs differ\ncoldtall artifacts list: %v\nGET /v1/artifacts:       %v", names, served)
	}
	if line := firstLine(s.get("/v1/artifacts/table1?format=csv")); line != "parameter,value" {
		t.Fatalf("table1 CSV header %q, want parameter,value", line)
	}

	doc, _ := run(t, "coldtall", "openapi")
	if !bytes.Equal(doc, s.get("/v1/openapi.json")) {
		t.Fatal("coldtall openapi diverged from the served /v1/openapi.json")
	}
	for _, name := range names {
		if !bytes.Contains(doc, []byte(`"`+name+`"`)) {
			t.Errorf("artifact %s missing from the OpenAPI document", name)
		}
	}
	s.stop()
}

// techaxes: the gaincell, deepcryo and freqsweep artifacts serve
// byte-identically to the CLI's CSV, deepcryo reaches 4 K with a
// Carnot-scaled cooler, and the 4 K gain-cell and 10 GHz sweep axes
// characterize through the CLI.
func techaxes(t *testing.T) {
	headers := map[string]string{
		"gaincell":  "design_point,cell,corner,dies,temperature_k,retention_s,",
		"deepcryo":  "cell,temperature_k,cooler_w_per_w,",
		"freqsweep": "design_point,cell,temperature_k,frequency_hz,rel_ipc,rel_perf,",
	}
	cli := map[string][]byte{}
	for name, header := range headers {
		cli[name], _ = run(t, "coldtall", "artifacts", "-format", "csv", name)
		if !bytes.HasPrefix(cli[name], []byte(header)) {
			t.Fatalf("%s.csv header drifted: %q", name, firstLine(cli[name]))
		}
	}

	s := boot(t)
	for name, want := range cli {
		if !bytes.Equal(s.get("/v1/artifacts/"+name+"?format=csv"), want) {
			t.Errorf("%s.csv served over HTTP differs from the CLI bytes", name)
		}
	}

	// The flat 77 K cooler figure is 9.65 W/W; at 4 K Carnot scaling
	// must push it past 100.
	rows, err := csv.NewReader(bytes.NewReader(cli["deepcryo"])).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	carnot := false
	for _, r := range rows[1:] {
		k, _ := strconv.ParseFloat(r[1], 64)
		w, _ := strconv.ParseFloat(r[2], 64)
		carnot = carnot || (k == 4 && w > 100)
	}
	if !carnot {
		t.Error("deepcryo.csv has no 4 K row with a Carnot-scaled cooler overhead")
	}

	for _, sw := range []struct{ want, args string }{
		{"osgc-optimistic @4K", "-cell OS-GC -corner optimistic -style monolithic -dies 4 -temp 4"},
		{"@10GHz", "-cell SRAM -temp 77 -freq 10e9"},
	} {
		if out, _ := run(t, "coldtall", append([]string{"sweep"}, strings.Fields(sw.args)...)...); !bytes.Contains(out, []byte(sw.want)) {
			t.Errorf("sweep %s: output lacks %q:\n%s", sw.args, sw.want, out)
		}
	}
	s.stop()
}

// traceTools: tracegen's text and binary traces simulate identically in
// llcsim, llcsim -dump writes tracegen's canonical .ctrace bytes, and the
// binary form is the smaller one.
func traceTools(t *testing.T) {
	dir := t.TempDir()
	gen := []string{"-bench", "mcf", "-n", "200000", "-seed", "42"}
	text, _ := run(t, "tracegen", gen...)
	binary, _ := run(t, "tracegen", slices.Concat(gen, []string{"-format", "binary"})...)
	textPath := writeFile(t, dir, "mcf.trace", text)
	binPath := writeFile(t, dir, "mcf.ctrace", binary)
	llcsim := func(path string, args ...string) []byte {
		out, _ := run(t, "llcsim", slices.Concat([]string{"-bench", "mcf", "-trace", path}, args)...)
		return out
	}

	want := llcsim(binPath)
	if !bytes.Equal(llcsim(textPath), want) {
		t.Error("text and binary traces simulate differently")
	}
	dumped := filepath.Join(dir, "dumped.ctrace")
	if !bytes.Equal(llcsim(textPath, "-dump", dumped), want) {
		t.Error("conversion mode simulated differently")
	}
	if got, err := os.ReadFile(dumped); err != nil || !bytes.Equal(got, binary) {
		t.Errorf("-dump output is not the canonical .ctrace encoding (err %v)", err)
	}
	if len(binary) >= len(text) {
		t.Errorf(".ctrace (%d B) not smaller than text (%d B)", len(binary), len(text))
	}
}

// workloads: an identical re-upload is aliased with byte-identical
// artifacts and counted once as a dedup, a profile trace distills back
// to a generator within tolerance, and a chunked upload interrupted
// halfway resumes to the exact content address.
func workloads(t *testing.T) {
	dir := t.TempDir()
	s := boot(t, "-store-dir", filepath.Join(dir, "store"))
	gen := `{"pattern": "stream", "working_set_bytes": 67108864, "write_frac": 0.3, "accesses": 50000, "seed": 5}`
	for _, name := range []string{"wlorig", "wlcopy"} {
		spec := writeFile(t, dir, name+".json", []byte(`{"name": "`+name+`", "generator": `+gen+`}`))
		s.cli("workloads", "-poll", "50ms", "add", spec)
	}
	if rec := s.get("/v1/workloads/wlcopy"); !bytes.Contains(rec, []byte(`"kind":"alias"`)) || !bytes.Contains(rec, []byte(`"alias_of":"wlorig"`)) {
		t.Fatalf("identical re-upload is not an alias of wlorig:\n%s", rec)
	}
	if !bytes.Equal(s.get("/v1/workloads/wlorig/artifacts/fig5?format=csv"), s.get("/v1/workloads/wlcopy/artifacts/fig5?format=csv")) {
		t.Error("alias and canonical render different fig5 bytes")
	}
	if !slices.Contains(strings.Split(string(s.get("/metrics")), "\n"), "coldtall_ingest_dedup_total 1") {
		t.Error("/metrics lacks the line coldtall_ingest_dedup_total 1")
	}
	s.cli("workloads", "similar", "wlorig")
	if sig := s.cli("workloads", "sig", "wlcopy"); !bytes.Contains(sig, []byte("canonical = wlorig")) {
		t.Errorf("alias signature does not resolve to the canonical workload:\n%s", sig)
	}

	prof := writeFile(t, dir, "prof.json", []byte(`{"name": "wlprof", "generator": {"profile": "mcf", "accesses": 65536, "seed": 1}}`))
	s.cli("workloads", "-poll", "50ms", "add", prof)
	distill := s.cli("workloads", "-poll", "50ms", "distill", "wlprof")
	if !bytes.Contains(distill, []byte("accepted  = true")) || !bytes.Contains(distill, []byte("deleted true")) {
		t.Errorf("distillation was not accepted or kept the stored trace:\n%s", distill)
	}

	payload, _ := run(t, "tracegen", "-bench", "mcf", "-n", "100000", "-seed", "9", "-format", "binary")
	half := len(payload) / 2
	const chunks = "/v1/workloads/wlchunk/chunks"
	s.fetch("POST", chunks+"?offset=0", payload[:half])
	var upload struct{ Offset int }
	decode(t, s.get(chunks), &upload)
	if upload.Offset != half {
		t.Fatalf("resume offset %d after interruption, want %d", upload.Offset, half)
	}
	if code := s.code("POST", chunks+"?offset=0", "", string(payload[:half])); code != http.StatusConflict {
		t.Fatalf("stale chunk retransmit answered %d, want 409", code)
	}
	var job struct{ ID string }
	decode(t, s.fetch("POST", fmt.Sprintf("%s?offset=%d&complete=1", chunks, half), payload[half:]), &job)
	s.cli("jobs", "-poll", "50ms", "wait", job.ID)
	sum := sha256.Sum256(payload)
	if rec := s.get("/v1/workloads/wlchunk"); !bytes.Contains(rec, []byte(`"trace_sha256":"`+hex.EncodeToString(sum[:])+`"`)) {
		t.Errorf("resumed upload ingested a different trace content address:\n%s", rec)
	}

	s.cli("workloads", "rm", "wlcopy") // aliases go before their canonical
	s.cli("workloads", "rm", "wlorig")
	s.stop()
}

// tenantsConfig has alice (interactive, roomy budget), bob (bulk) and
// carol, whose two-evaluation budget exists to be exhausted.
const tenantsConfig = `{"tenants": [
  {"name": "alice", "key": "alice-key", "weight": 2, "budget": 1000, "budget_window": "1h"},
  {"name": "bob", "key": "bob-key", "weight": 1},
  {"name": "carol", "key": "carol-key", "budget": 2, "budget_window": "1h"}
]}`

// tenants: key auth, budget exhaustion, the priority-inversion check,
// `jobs watch` byte identity, per-tenant metrics and a SIGHUP key
// rotation against `serve -tenants`. One job runs at a time, so whatever
// the scheduler picks next is the only thing running.
func tenants(t *testing.T) {
	dir := t.TempDir()
	config := writeFile(t, dir, "tenants.json", []byte(tenantsConfig))
	s := boot(t, "-tenants", config, "-job-concurrency", "1", "-store-dir", filepath.Join(dir, "store"))
	for key, want := range map[string]int{"wrong-key": 401, "alice-key": 200, "": 200} {
		if code := s.code("GET", "/v1/jobs", key, ""); code != want {
			t.Fatalf("GET /v1/jobs with key %q answered %d, want %d", key, code, want)
		}
	}

	for _, cell := range []string{"SRAM", "PCM"} {
		if code := s.code("POST", "/v1/characterize", "carol-key", `{"cell":"`+cell+`"}`); code != 200 {
			t.Fatalf("carol's %s answered %d within budget", cell, code)
		}
	}
	resp, _ := s.do("POST", "/v1/characterize", "carol-key", []byte(`{"cell":"STT-RAM"}`))
	if h := resp.Header; resp.StatusCode != 429 || h.Get("X-Budget-Limit") != "2" || h.Get("X-Budget-Remaining") != "0" || h.Get("Retry-After") == "" {
		t.Fatalf("over-budget request: %s %v, want 429 with X-Budget-Limit 2, X-Budget-Remaining 0, Retry-After", resp.Status, h)
	}
	if code := s.code("POST", "/v1/characterize", "carol-key", `{"cell":"SRAM"}`); code != 200 {
		t.Fatalf("cache hit refused against an exhausted budget (%d)", code)
	}

	jobs := func(key string, args ...string) []byte {
		return s.cli("jobs", append([]string{"-api-key", key}, args...)...)
	}
	bulk := `{"kind":"ingest","ingest":{"name":"bulk-%d","generator":{"pattern":"zipf","zipf_skew":1.2,"working_set_bytes":33554432,"accesses":8000000,"seed":%[1]d}}}`
	jobs("bob-key", "submit", writeFile(t, dir, "bulk1.json", fmt.Appendf(nil, bulk, 1)))
	bulk2 := jobID(t, jobs("bob-key", "submit", writeFile(t, dir, "bulk2.json", fmt.Appendf(nil, bulk, 2))))
	interactive := jobID(t, jobs("alice-key", "submit", writeFile(t, dir, "interactive.json",
		[]byte(`{"kind":"characterize","points":[{"cell":"3T-eDRAM","temperature_k":77}]}`))))
	jobs("alice-key", "-poll", "100ms", "wait", interactive)
	if st := jobs("bob-key", "status", bulk2); bytes.Contains(st, []byte(" done ")) {
		t.Fatalf("priority inversion: queued bulk job finished before the interactive job:\n%s", st)
	}
	jobs("bob-key", "-poll", "200ms", "wait", bulk2)

	id := jobID(t, jobs("alice-key", "submit", "table1"))
	watched, progress := run(t, "coldtall", "jobs", "-server", s.base, "-api-key", "alice-key", "watch", id)
	if !bytes.Equal(watched, s.get("/v1/artifacts/table1?format=csv")) {
		t.Error("jobs watch stdout diverged from the synchronous CSV")
	}
	if !strings.Contains(progress, id) {
		t.Errorf("jobs watch printed no progress on stderr: %q", progress)
	}

	metrics := s.get("/metrics")
	for _, series := range []string{`coldtall_tenant_evals_spent_total{tenant="carol"}`,
		`coldtall_tenant_shed_total{tenant="carol"}`, `coldtall_tenant_admitted_total{tenant="carol"}`} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	writeFile(t, dir, "tenants.json", []byte(strings.Replace(tenantsConfig, "alice-key", "alice-key-2", 1)))
	if err := s.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.code("GET", "/v1/jobs", "alice-key", "") != 401; i++ {
		if i >= 50 {
			t.Fatal("rotated-out key still accepted 10 s after SIGHUP")
		}
		time.Sleep(200 * time.Millisecond)
	}
	if code := s.code("GET", "/v1/jobs", "alice-key-2", ""); code != 200 {
		t.Fatalf("rotated-in key answered %d, want 200", code)
	}
	s.stop()
}
