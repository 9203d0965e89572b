package server

// End-to-end tests of the workload-intelligence surface: near-duplicate
// dedup into aliases (with the zero-additional-work invariant pinned by
// an optimizer call count), the signature and similarity routes, workload
// removal ordering, resumable chunked uploads, and trace-to-generator
// distillation.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coldtall/internal/distill"
	"coldtall/internal/ingest"
	"coldtall/internal/job"
	"coldtall/internal/signature"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// TestWorkloadDedupOverHTTP uploads the same trace under two names and
// pins the tentpole invariant: the second upload registers as an alias
// that shares every downstream artifact byte-for-byte with zero
// additional replay or optimizer work.
func TestWorkloadDedupOverHTTP(t *testing.T) {
	s, study := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler

	uploadWorkload(t, h, genIngestSpec("orig"))

	// Second upload: identical generator stream under a new name. The
	// ingest job must finish without replaying (exact byte duplicate).
	dupSpec := genIngestSpec("copy")
	dupSpec.Description = "re-upload"
	st := uploadWorkload(t, h, dupSpec)
	res := get(t, h, "/v1/jobs/"+jobID(t, h, st)+"/result")
	var ir ingest.Result
	if err := json.Unmarshal(res.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Deduped || ir.AliasOf != "orig" || ir.DedupDistance != 0 {
		t.Fatalf("dedup result %+v", ir)
	}
	if ir.ReplaySeconds != 0 || ir.Stats.Accesses != 0 {
		t.Fatalf("exact duplicate still replayed: %+v", ir)
	}

	// The registry records alias provenance.
	var src workload.Source
	if err := json.Unmarshal(get(t, h, "/v1/workloads/copy").Body.Bytes(), &src); err != nil {
		t.Fatal(err)
	}
	if src.Kind != workload.SourceAlias || src.AliasOf != "orig" {
		t.Fatalf("alias record %+v", src)
	}

	// The dedup counter observed it.
	if met := get(t, h, "/metrics").Body.String(); !strings.Contains(met, "coldtall_ingest_dedup_total 1") {
		t.Error("metrics missing coldtall_ingest_dedup_total 1")
	}

	// Rendering the canonical artifact pays the sweep once...
	canon := get(t, h, "/v1/workloads/orig/artifacts/fig5?format=csv")
	if canon.Code != http.StatusOK {
		t.Fatalf("canonical artifact = %d: %s", canon.Code, canon.Body)
	}
	calls := study.Explorer().OptimizeCalls()
	// ...and the alias serves byte-identical output from the shared cache
	// entry with zero additional optimizer work.
	alias := get(t, h, "/v1/workloads/copy/artifacts/fig5?format=csv")
	if alias.Code != http.StatusOK || alias.Body.String() != canon.Body.String() {
		t.Fatalf("alias artifact = %d; bytes match canonical: %v", alias.Code, alias.Body.String() == canon.Body.String())
	}
	if got := study.Explorer().OptimizeCalls(); got != calls {
		t.Fatalf("alias render cost %d extra optimizer calls", got-calls)
	}

	// The alias answers with the canonical workload's signature.
	var sig signatureResponse
	if err := json.Unmarshal(get(t, h, "/v1/workloads/copy/signature").Body.Bytes(), &sig); err != nil {
		t.Fatal(err)
	}
	if sig.Canonical != "orig" || sig.SHA256 != ir.SignatureSHA256 || sig.Signature.Accesses != 50000 {
		t.Fatalf("alias signature %+v", sig)
	}
	var canonSig signatureResponse
	if err := json.Unmarshal(get(t, h, "/v1/workloads/orig/signature").Body.Bytes(), &canonSig); err != nil {
		t.Fatal(err)
	}
	if canonSig.Canonical != "" || canonSig.Signature != sig.Signature {
		t.Fatalf("canonical signature diverges: %+v", canonSig)
	}

	// Similarity ranks the alias at distance zero from its canonical.
	var sim similarResponse
	if err := json.Unmarshal(get(t, h, "/v1/workloads/orig/similar").Body.Bytes(), &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Threshold != signature.DefaultThreshold {
		t.Errorf("threshold = %g", sim.Threshold)
	}
	// The alias shares orig's signature group, so it is not reported as
	// "similar" — orig has no other workload to compare against yet.
	if len(sim.Matches) != 0 {
		t.Fatalf("matches = %+v", sim.Matches)
	}

	// A distinct stream registers canonically and then ranks against orig.
	other := genIngestSpec("far")
	other.Generator.Pattern = "zipf"
	other.Generator.ZipfSkew = 1.2
	uploadWorkload(t, h, other)
	if err := json.Unmarshal(get(t, h, "/v1/workloads/orig/similar?limit=1").Body.Bytes(), &sim); err != nil {
		t.Fatal(err)
	}
	if len(sim.Matches) != 1 || sim.Matches[0].Name != "far" || sim.Matches[0].Distance <= signature.DefaultThreshold {
		t.Fatalf("matches = %+v", sim.Matches)
	}

	// Deletion ordering: the canonical entry refuses while its alias
	// lives, listing the dependent.
	if rr := del(t, h, "/v1/workloads/orig"); rr.Code != http.StatusConflict || !strings.Contains(rr.Body.String(), "copy") {
		t.Fatalf("delete canonical with alias = %d: %s", rr.Code, rr.Body)
	}
	if rr := del(t, h, "/v1/workloads/copy"); rr.Code != http.StatusOK {
		t.Fatalf("delete alias = %d: %s", rr.Code, rr.Body)
	}
	if rr := del(t, h, "/v1/workloads/orig"); rr.Code != http.StatusOK {
		t.Fatalf("delete canonical = %d: %s", rr.Code, rr.Body)
	}
	if rr := get(t, h, "/v1/workloads/orig"); rr.Code != http.StatusNotFound {
		t.Errorf("deleted workload still served: %d", rr.Code)
	}
	if _, ok := s.sigs.Get("orig"); ok {
		t.Error("signature index entry survived deletion")
	}
	// Static names and unknowns map to 400 and 404.
	if rr := del(t, h, "/v1/workloads/namd"); rr.Code != http.StatusBadRequest {
		t.Errorf("delete static = %d", rr.Code)
	}
	if rr := del(t, h, "/v1/workloads/ghost"); rr.Code != http.StatusNotFound {
		t.Errorf("delete unknown = %d", rr.Code)
	}
}

// jobID extracts the job ID of an ingest job status (the helper returns
// the terminal status whose ID fetches the result).
func jobID(t *testing.T, h http.Handler, st job.Status) string {
	t.Helper()
	if st.ID == "" {
		t.Fatal("job status has no ID")
	}
	return st.ID
}

func del(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodDelete, path, nil))
	return rr
}

// postRaw sends a raw byte body (the chunk routes take binary payloads).
func postRaw(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/octet-stream")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestWorkloadChunkedUploadOverHTTP drives the resumable upload protocol:
// chunks append at acknowledged offsets, a stale retransmit answers 409
// with the resume offset, the offset survives (simulated) interruption
// via the read-only offset route, and completion ingests to the same
// content address as the original payload.
func TestWorkloadChunkedUploadOverHTTP(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	h := s.handler

	g, err := trace.NewStream(trace.Region{Base: 0, Size: 32 << 20}, 2, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	payload := trace.EncodeBinary(trace.Collect(g, 30000))
	sum := sha256.Sum256(payload)
	wantSHA := hex.EncodeToString(sum[:])
	third := len(payload) / 3

	// First chunk.
	rr := postRaw(t, h, "/v1/workloads/chunked/chunks?offset=0", payload[:third])
	if rr.Code != http.StatusOK {
		t.Fatalf("chunk 1 = %d: %s", rr.Code, rr.Body)
	}
	var ack chunkResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Offset != int64(third) {
		t.Fatalf("ack offset = %d, want %d", ack.Offset, third)
	}

	// A retransmit at a stale offset is refused with the resume offset.
	rr = postRaw(t, h, "/v1/workloads/chunked/chunks?offset=0", payload[:third])
	if rr.Code != http.StatusConflict {
		t.Fatalf("stale retransmit = %d: %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Offset != int64(third) {
		t.Fatalf("conflict offset = %d, want %d", ack.Offset, third)
	}

	// A resuming client reads the offset instead of guessing.
	if err := json.Unmarshal(get(t, h, "/v1/workloads/chunked/chunks").Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Offset != int64(third) {
		t.Fatalf("resume offset = %d, want %d", ack.Offset, third)
	}

	// Second chunk, then the final chunk with ?complete=1 submits the
	// ingest job.
	if rr = postRaw(t, h, fmt.Sprintf("/v1/workloads/chunked/chunks?offset=%d", third), payload[third:2*third]); rr.Code != http.StatusOK {
		t.Fatalf("chunk 2 = %d: %s", rr.Code, rr.Body)
	}
	rr = postRaw(t, h, fmt.Sprintf("/v1/workloads/chunked/chunks?offset=%d&complete=1", 2*third), payload[2*third:])
	if rr.Code != http.StatusAccepted {
		t.Fatalf("complete = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if fin := pollJob(t, h, sub.ID); fin.State != job.StateDone {
		t.Fatalf("chunked ingest finished %s: %s", fin.State, fin.Error)
	}

	// The registered workload content-addresses the exact original bytes.
	var src workload.Source
	if err := json.Unmarshal(get(t, h, "/v1/workloads/chunked").Body.Bytes(), &src); err != nil {
		t.Fatal(err)
	}
	if src.TraceSHA256 != wantSHA || src.Accesses != 30000 {
		t.Fatalf("chunked source %+v, want trace sha %s", src, wantSHA)
	}

	// The upload record was discarded after submission.
	if err := json.Unmarshal(get(t, h, "/v1/workloads/chunked/chunks").Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Offset != 0 {
		t.Fatalf("upload record survived completion: offset %d", ack.Offset)
	}
}

func TestWorkloadChunksNeedStore(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler
	if rr := postRaw(t, h, "/v1/workloads/x/chunks?offset=0", []byte("data")); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("chunk append without store = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/workloads/x/chunks"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("chunk offset without store = %d", rr.Code)
	}
}

// TestWorkloadDistillOverHTTP runs the distillation job end to end: the
// fitted generator spec replaces the stored trace, and the result JSON
// reports the storage win.
func TestWorkloadDistillOverHTTP(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	h := s.handler

	spec := ingest.Spec{
		Name:      "todistill",
		Generator: &ingest.GeneratorSpec{Profile: "mcf", Accesses: 1 << 16, Seed: 1},
	}
	uploadWorkload(t, h, spec)
	var src workload.Source
	if err := json.Unmarshal(get(t, h, "/v1/workloads/todistill").Body.Bytes(), &src); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.st.Get(ingest.TraceKeyPrefix + src.TraceSHA256); !ok {
		t.Fatal("setup: trace bytes not persisted")
	}

	rr := post(t, h, "/v1/workloads/todistill/distill", "")
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST distill = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Kind != job.KindDistill || sub.Workload != "todistill" {
		t.Fatalf("distill status %+v", sub)
	}
	if fin := pollJob(t, h, sub.ID); fin.State != job.StateDone {
		t.Fatalf("distill finished %s: %s", fin.State, fin.Error)
	}
	var res distill.Result
	if err := json.Unmarshal(get(t, h, "/v1/jobs/"+sub.ID+"/result").Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.RelErr > distill.Tolerance {
		t.Fatalf("fit rejected: %+v", res)
	}
	if !res.TraceDeleted || res.StorageRatio < 50 {
		t.Fatalf("storage accounting %+v", res)
	}
	if _, ok := s.st.Get(ingest.TraceKeyPrefix + src.TraceSHA256); ok {
		t.Fatal("trace bytes survived an accepted distillation")
	}
	if _, ok := s.st.Get(distill.KeyPrefix + "todistill"); !ok {
		t.Fatal("distillation record not persisted")
	}
	// The workload still resolves and renders after its trace is gone.
	if rr := get(t, h, "/v1/workloads/todistill"); rr.Code != http.StatusOK {
		t.Fatalf("workload lost after distillation: %d", rr.Code)
	}

	// Refusals: static benchmarks 400, unknown names 404.
	if rr := post(t, h, "/v1/workloads/namd/distill", ""); rr.Code != http.StatusBadRequest {
		t.Errorf("distill static = %d: %s", rr.Code, rr.Body)
	}
	if rr := post(t, h, "/v1/workloads/ghost/distill", ""); rr.Code != http.StatusNotFound {
		t.Errorf("distill unknown = %d", rr.Code)
	}
}

// TestWorkloadDeleteInvalidatesResponses pins stale-response invalidation,
// which the response LRU's purge alone provides: after a workload is
// removed and its name re-ingested from a different generator, its
// per-workload artifact and an evaluate against it answer with a fresh
// server's bytes for the new workload, never the old bodies.
func TestWorkloadDeleteInvalidatesResponses(t *testing.T) {
	read := func(h http.Handler) (art, ev string) {
		t.Helper()
		a := get(t, h, "/v1/workloads/wlx/artifacts/fig5?format=csv")
		e := post(t, h, "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"wlx"}`)
		if a.Code != http.StatusOK || e.Code != http.StatusOK {
			t.Fatalf("artifact = %d, evaluate = %d: %s %s", a.Code, e.Code, a.Body, e.Body)
		}
		return a.Body.String(), e.Body.String()
	}
	next := genIngestSpec("wlx")
	next.Generator.Pattern = "zipf"
	next.Generator.ZipfSkew = 1.2

	s := newStoreServer(t, t.TempDir())
	h := s.handler
	uploadWorkload(t, h, genIngestSpec("wlx"))
	oldArt, oldEv := read(h)
	rr := del(t, h, "/v1/workloads/wlx")
	if rr.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rr.Code, rr.Body)
	}
	var resp workloadDeleteResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PurgedResponses != 2 {
		t.Errorf("purged %d responses, want 2 (the artifact and the evaluate)", resp.PurgedResponses)
	}
	uploadWorkload(t, h, next)
	gotArt, gotEv := read(h)

	fresh, _ := newTestServer(t, Config{})
	t.Cleanup(fresh.jobs.Close)
	uploadWorkload(t, fresh.handler, next)
	wantArt, wantEv := read(fresh.handler)
	if wantArt == oldArt || wantEv == oldEv {
		t.Fatal("the two generators give identical responses (test setup broken)")
	}
	if gotArt != wantArt {
		t.Error("re-ingested workload's fig5 differs from a fresh server's")
	}
	if gotEv != wantEv {
		t.Error("re-ingested workload's evaluate differs from a fresh server's")
	}
}
