package server

// End-to-end tests of the workload ingestion surface: upload over HTTP,
// catalog and per-workload artifact routes, sync/async byte-identity (the
// PR's acceptance property), ingestion metrics, and registry recovery
// across a restart.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"coldtall/internal/ingest"
	"coldtall/internal/job"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// ingestBody renders an ingestion spec as the POST /v1/workloads payload.
func ingestBody(t *testing.T, spec ingest.Spec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// uploadWorkload POSTs the spec and polls its ingest job to completion.
func uploadWorkload(t *testing.T, h http.Handler, spec ingest.Spec) job.Status {
	t.Helper()
	rr := post(t, h, "/v1/workloads", ingestBody(t, spec))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/workloads = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Kind != job.KindIngest || sub.Workload != spec.Name {
		t.Fatalf("submit status %+v", sub)
	}
	st := pollJob(t, h, sub.ID)
	if st.State != job.StateDone {
		t.Fatalf("ingest job finished %s: %s", st.State, st.Error)
	}
	return st
}

func genIngestSpec(name string) ingest.Spec {
	return ingest.Spec{
		Name:        name,
		Description: "e2e upload",
		Generator: &ingest.GeneratorSpec{
			Pattern:         "stream",
			WorkingSetBytes: 64 << 20,
			WriteFrac:       0.3,
			Accesses:        50000,
			Seed:            5,
		},
	}
}

// TestWorkloadIngestOverHTTP is the end-to-end acceptance path: a custom
// workload goes in through POST /v1/workloads and comes back out as a
// traffic-dependent artifact, byte-identical between the synchronous route
// and the job-based route.
func TestWorkloadIngestOverHTTP(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler

	st := uploadWorkload(t, h, genIngestSpec("e2e"))
	if st.Done != 50000 || st.Total != 50000 {
		t.Errorf("ingest progress %d/%d, want 50000/50000", st.Done, st.Total)
	}

	// The catalog now lists 23 static entries plus the upload.
	var list workloadListResponse
	if err := json.Unmarshal(get(t, h, "/v1/workloads").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workloads) != len(workload.StaticTraffic())+1 {
		t.Fatalf("catalog has %d entries", len(list.Workloads))
	}

	// The workload record is served by name.
	rr := get(t, h, "/v1/workloads/e2e")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /v1/workloads/e2e = %d: %s", rr.Code, rr.Body)
	}
	var src workload.Source
	if err := json.Unmarshal(rr.Body.Bytes(), &src); err != nil {
		t.Fatal(err)
	}
	if src.Kind != workload.SourceProfile || src.TraceSHA256 == "" || src.Traffic.ReadsPerSec <= 0 {
		t.Fatalf("source record %+v", src)
	}

	// Synchronous per-workload artifact rendering.
	sync := get(t, h, "/v1/workloads/e2e/artifacts/fig5?format=csv")
	if sync.Code != http.StatusOK || !strings.HasPrefix(sync.Header().Get("Content-Type"), "text/csv") {
		t.Fatalf("sync artifact = %d %q: %s", sync.Code, sync.Header().Get("Content-Type"), sync.Body)
	}
	if !strings.Contains(sync.Body.String(), "e2e") {
		t.Fatal("artifact rows do not reference the ingested workload")
	}

	// The JSON form renders rows under the artifact's schema.
	var jart struct {
		Name string  `json:"name"`
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/workloads/e2e/artifacts/fig5").Body.Bytes(), &jart); err != nil {
		t.Fatal(err)
	}
	if jart.Name != "fig5" || len(jart.Rows) == 0 {
		t.Fatalf("JSON artifact = %+v", jart)
	}

	// The job-based path produces byte-identical CSV.
	rr = post(t, h, "/v1/jobs", `{"kind":"artifact","artifact":"fig5","workload":"e2e"}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if fin := pollJob(t, h, sub.ID); fin.State != job.StateDone {
		t.Fatalf("artifact job finished %s: %s", fin.State, fin.Error)
	}
	async := get(t, h, "/v1/jobs/"+sub.ID+"/result")
	if async.Body.String() != sync.Body.String() {
		t.Error("job-based artifact bytes diverge from the synchronous route")
	}

	// The ingestion metrics observed the upload.
	met := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		"coldtall_workload_uploads_total 1",
		`coldtall_workload_trace_accesses_bucket{le="100000"} 1`,
		"coldtall_workload_replay_seconds_count 1",
		"coldtall_workload_trace_bytes_count 1",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestWorkloadTraceUploadOverHTTP uploads raw .ctrace bytes (base64 inside
// the JSON spec) and checks the registered record points at the same
// canonical content address a local encode computes.
func TestWorkloadTraceUploadOverHTTP(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler

	g, err := trace.NewZipf(trace.Region{Base: 1 << 28, Size: 32 << 20}, 1.2, 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 20000)
	uploadWorkload(t, h, ingest.Spec{Name: "upload.bin", Trace: trace.EncodeBinary(accesses)})

	var src workload.Source
	if err := json.Unmarshal(get(t, h, "/v1/workloads/upload.bin").Body.Bytes(), &src); err != nil {
		t.Fatal(err)
	}
	if src.Kind != workload.SourceTrace || src.Accesses != 20000 {
		t.Fatalf("source record %+v", src)
	}
	if s.st != nil {
		t.Fatal("memory-only test server unexpectedly has a store")
	}
}

func TestWorkloadEndpointErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler

	if rr := get(t, h, "/v1/workloads/ghost"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown workload = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/workloads/namd/artifacts/fig1"); rr.Code != http.StatusNotFound {
		t.Errorf("workload-independent artifact = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/workloads/ghost/artifacts/fig5"); rr.Code != http.StatusNotFound {
		t.Errorf("artifact for unknown workload = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/workloads/namd/artifacts/fig5?format=yaml"); rr.Code != http.StatusBadRequest {
		t.Errorf("bad format = %d", rr.Code)
	}
	// Reserved static names and malformed specs are rejected at submit.
	for i, body := range []string{
		`{"name":"namd","generator":{"pattern":"stream","working_set_bytes":1048576,"accesses":5000}}`,
		`{"name":"x"}`,
		`{"name":"x","trace":"AAAA","generator":{"pattern":"stream","working_set_bytes":1048576,"accesses":5000}}`,
		`not json`,
	} {
		if rr := post(t, h, "/v1/workloads", body); rr.Code != http.StatusBadRequest {
			t.Errorf("bad spec %d = %d: %s", i, rr.Code, rr.Body)
		}
	}
	// Static benchmarks reject per-workload artifact *jobs* never — they
	// render like any registry entry.
	if rr := get(t, h, "/v1/workloads/namd"); rr.Code != http.StatusOK {
		t.Errorf("static workload record = %d", rr.Code)
	}
}

// TestWorkloadRecoveryAcrossRestart: an ingested workload and its artifact
// survive a process restart through the store-backed registry recovery.
func TestWorkloadRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreServer(t, dir)
	uploadWorkload(t, s1.handler, genIngestSpec("durable"))
	want := get(t, s1.handler, "/v1/workloads/durable/artifacts/fig5?format=csv")
	if want.Code != http.StatusOK {
		t.Fatalf("pre-restart artifact = %d", want.Code)
	}
	s1.jobs.Close()

	s2 := newStoreServer(t, dir)
	rr := get(t, s2.handler, "/v1/workloads/durable")
	if rr.Code != http.StatusOK {
		t.Fatalf("workload lost across restart: %d (%s)", rr.Code, rr.Body)
	}
	got := get(t, s2.handler, "/v1/workloads/durable/artifacts/fig5?format=csv")
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("post-restart artifact = %d; bytes match pre-restart: %v", got.Code, got.Body.String() == want.Body.String())
	}
	if fmt.Sprint(s2.workloads.Custom()) == "[]" {
		t.Fatal("recovered registry lists no custom workloads")
	}
}
