package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"coldtall"
	"coldtall/internal/distill"
	"coldtall/internal/ingest"
	"coldtall/internal/job"
	"coldtall/internal/signature"
	"coldtall/internal/workload"
)

// workloadListResponse enumerates the registry: the 23 static SPEC
// entries in canonical order, then ingested workloads by name.
type workloadListResponse struct {
	Workloads []workload.Source `json:"workloads"`
}

// handleWorkloadSubmit accepts an ingestion spec (a base64 trace or a
// generator description) and runs it as an async job: replaying a trace
// through the cache hierarchy takes seconds, which does not belong inside
// a synchronous request. Answers 202 with the job status; the registered
// workload appears under /v1/workloads/{name} once the job is done.
func (s *Server) handleWorkloadSubmit(w http.ResponseWriter, r *http.Request) {
	var spec ingest.Spec
	if !s.decode(w, r, &spec) {
		return
	}
	s.submitJob(w, r, job.Spec{Kind: job.KindIngest, Ingest: &spec})
}

// handleWorkloadList serves the full workload catalog.
func (s *Server) handleWorkloadList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(workloadListResponse{Workloads: s.workloads.All()})
}

// handleWorkloadGet serves one workload's source record (static or
// ingested).
func (s *Server) handleWorkloadGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, ok := s.workloads.Lookup(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown workload %q (see GET /v1/workloads for the catalog)", name), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(src)
}

// handleWorkloadArtifact renders one traffic-dependent artifact restricted
// to one workload; its CSV comes from job.ArtifactCSV, the renderer of the
// async artifact job, so the two responses are byte-identical by
// construction. Cached per (workload, artifact, format), with the name
// resolved through at most one alias hop first: an alias and its canonical
// workload carry identical traffic, so they share one cache entry and a
// deduplicated upload costs zero additional sweep work. Registry entries
// are never mutated in place, so a cached rendering can never go stale
// against its workload's traffic.
func (s *Server) handleWorkloadArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.workloads.Lookup(name); !ok {
		http.Error(w, fmt.Sprintf("unknown workload %q (see GET /v1/workloads for the catalog)", name), http.StatusNotFound)
		return
	}
	canon := s.workloads.Canonical(name)
	d, ok := coldtall.Artifacts().Lookup(r.PathValue("artifact"))
	if !ok || !coldtall.IsTrafficArtifact(d.Name) {
		http.Error(w, fmt.Sprintf("artifact %q cannot be rendered per-workload (want one of %v)",
			r.PathValue("artifact"), coldtall.TrafficArtifactNames()), http.StatusNotFound)
		return
	}
	s.serveArtifactAs(w, r, d, canon, "workload-artifact|"+canon+"|"+d.Name)
}

// signatureResponse is the wire form of a locality signature, with the
// derived scalars precomputed so clients need not re-implement the
// bucket math.
type signatureResponse struct {
	Workload string `json:"workload"`
	// Canonical is set when the name resolved through an alias.
	Canonical      string              `json:"canonical,omitempty"`
	SHA256         string              `json:"sha256"`
	Signature      signature.Signature `json:"signature"`
	ReadFrac       float64             `json:"read_frac"`
	SeqFrac        float64             `json:"seq_frac"`
	FootprintBytes uint64              `json:"footprint_bytes"`
	ReuseP50       uint64              `json:"reuse_p50"`
	ReuseP90       uint64              `json:"reuse_p90"`
}

// workloadSignature resolves a path name to its (canonical) signature,
// writing the 404 itself on failure.
func (s *Server) workloadSignature(w http.ResponseWriter, name string) (signature.Signature, string, bool) {
	if _, ok := s.workloads.Lookup(name); !ok {
		http.Error(w, fmt.Sprintf("unknown workload %q (see GET /v1/workloads for the catalog)", name), http.StatusNotFound)
		return signature.Signature{}, "", false
	}
	canon := s.workloads.Canonical(name)
	sig, ok := s.sigs.Get(canon)
	if !ok {
		http.Error(w, fmt.Sprintf("workload %q has no locality signature (static benchmarks are not replayed traces; re-ingest custom workloads recorded before signatures existed)", name), http.StatusNotFound)
		return signature.Signature{}, "", false
	}
	return sig, canon, true
}

// handleWorkloadSignature serves the locality signature computed during
// the workload's ingestion replay. Aliases answer with their canonical
// workload's signature.
func (s *Server) handleWorkloadSignature(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sig, canon, ok := s.workloadSignature(w, name)
	if !ok {
		return
	}
	resp := signatureResponse{
		Workload:       name,
		SHA256:         sig.SHA256(),
		Signature:      sig,
		ReadFrac:       sig.ReadFrac(),
		SeqFrac:        sig.SeqFrac(),
		FootprintBytes: sig.FootprintBytes(),
		ReuseP50:       sig.ReuseQuantile(0.5),
		ReuseP90:       sig.ReuseQuantile(0.9),
	}
	if canon != name {
		resp.Canonical = canon
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// similarResponse ranks the other indexed workloads by signature
// distance; matches at or under the threshold are what ingest-time dedup
// would have aliased.
type similarResponse struct {
	Workload  string            `json:"workload"`
	Threshold float64           `json:"threshold"`
	Matches   []signature.Match `json:"matches"`
}

// handleWorkloadSimilar serves the signature-distance ranking of every
// other indexed workload against this one.
func (s *Server) handleWorkloadSimilar(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sig, canon, ok := s.workloadSignature(w, name)
	if !ok {
		return
	}
	// Rank canonical entries only: an alias shares its canonical's
	// signature, so listing both would report every deduplicated upload
	// twice at the same distance — and the queried workload's own alias
	// group is not "similar", it is the same workload.
	matches := s.sigs.Rank(sig, func(other string) bool {
		c := s.workloads.Canonical(other)
		return c != other || c == canon
	})
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			badRequest(w, fmt.Errorf("limit must be a positive integer, got %q", v))
			return
		}
		if n < len(matches) {
			matches = matches[:n]
		}
	}
	if matches == nil {
		matches = []signature.Match{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(similarResponse{
		Workload:  name,
		Threshold: signature.DefaultThreshold,
		Matches:   matches,
	})
}

// handleWorkloadDistill submits the async distillation job: fit a compact
// generator spec to the workload's stored trace and, when the regenerated
// traffic matches within tolerance, replace the trace bytes with the
// spec. Static and alias names are refused synchronously by the job
// manager (400); the fit itself runs on the job workers.
func (s *Server) handleWorkloadDistill(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.workloads.Lookup(name); !ok {
		http.Error(w, fmt.Sprintf("unknown workload %q (see GET /v1/workloads for the catalog)", name), http.StatusNotFound)
		return
	}
	s.submitJob(w, r, job.Spec{Kind: job.KindDistill, Workload: name})
}

// staleForWorkload matches the response-cache keys that embed a removed
// workload's name: its per-workload artifact renderings (keyed by the
// canonical name, which a bare canonical removal is) and any evaluate or
// sweep responses computed against its traffic. Purging them keeps the
// registry's coherence argument intact if the name is later re-registered
// with different traffic.
func staleForWorkload(name string) func(key string) bool {
	return func(key string) bool {
		switch {
		case strings.HasPrefix(key, "workload-artifact|"+name+"|"):
			return true
		case strings.HasPrefix(key, "evaluate|") && strings.HasSuffix(key, "|"+name):
			return true
		case strings.HasPrefix(key, "sweep|"):
			for _, part := range strings.Split(strings.TrimPrefix(key, "sweep|"), ";") {
				if part == name {
					return true
				}
			}
		}
		return false
	}
}

// workloadDeleteResponse reports what a removal dropped.
type workloadDeleteResponse struct {
	Removed workload.Source `json:"removed"`
	// PurgedResponses counts cached response bodies invalidated (response
	// bodies live only in the in-memory cache).
	PurgedResponses int `json:"purged_responses"`
}

// handleWorkloadDelete removes an ingested workload. Static names answer
// 400, unknown names 404, and a canonical entry that still has aliases
// 409 with the dependents listed — remove those first. Alongside the
// registry entry it drops the persisted workload record, the distillation
// record, the signature-index entry, and every cached response computed
// against the name; the content-addressed trace and signature blobs stay
// (they may be shared with other workloads and are reclaimed only when
// provably unreferenced).
func (s *Server) handleWorkloadDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if workload.IsStatic(name) {
		http.Error(w, fmt.Sprintf("%q is a static benchmark and cannot be removed", name), http.StatusBadRequest)
		return
	}
	if _, ok := s.workloads.Lookup(name); !ok {
		http.Error(w, fmt.Sprintf("unknown workload %q (see GET /v1/workloads for the catalog)", name), http.StatusNotFound)
		return
	}
	if deps := s.workloads.Dependents(name); len(deps) > 0 {
		http.Error(w, fmt.Sprintf("%q is the canonical entry for %d alias(es) %v; remove those first", name, len(deps), deps), http.StatusConflict)
		return
	}
	src, err := s.workloads.Remove(name)
	if err != nil {
		// A concurrent alias registration can land between the dependents
		// check and the removal; surface it as the same conflict.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.sigs.Remove(name)
	purged := s.respCache.DeleteFunc(staleForWorkload(name))
	if s.st != nil {
		_ = s.st.Delete(ingest.WorkloadKeyPrefix + name)
		_ = s.st.Delete(distill.KeyPrefix + name)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(workloadDeleteResponse{Removed: src, PurgedResponses: purged})
}

// chunkResponse acknowledges one append (or reports the resume offset).
type chunkResponse struct {
	Name string `json:"name"`
	// Offset is the bytes accepted so far — where the next append must
	// start.
	Offset int64 `json:"offset"`
}

// uploadsReady gates the chunk routes on the persistent store resumable
// uploads require.
func (s *Server) uploadsReady(w http.ResponseWriter) bool {
	if s.uploads == nil {
		http.Error(w, "resumable uploads need a persistent store (start the server with a store directory)", http.StatusServiceUnavailable)
		return false
	}
	return true
}

// handleWorkloadChunkAppend appends one chunk of a resumable trace upload
// at ?offset=. A mismatched offset answers 409 with the current offset in
// the same JSON shape, so a client that crashed mid-upload (or whose ack
// was lost) resumes by reading it. With ?complete=1 the accumulated
// chunks are assembled into the trace payload and submitted as a normal
// ingestion job (202 + job ID); the upload record is discarded only after
// the job is accepted.
func (s *Server) handleWorkloadChunkAppend(w http.ResponseWriter, r *http.Request) {
	if !s.uploadsReady(w) {
		return
	}
	name := r.PathValue("name")
	q := r.URL.Query()
	var offset int64
	if v := q.Get("offset"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			badRequest(w, fmt.Errorf("offset must be a non-negative integer, got %q", v))
			return
		}
		offset = n
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			http.Error(w, fmt.Sprintf("chunk exceeds %d bytes", maxErr.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		badRequest(w, fmt.Errorf("reading chunk: %w", err))
		return
	}
	complete := q.Get("complete") == "1" || q.Get("complete") == "true"
	cur := offset
	if len(body) > 0 {
		cur, err = s.uploads.Append(name, offset, body)
		var oe *ingest.OffsetError
		if errors.As(err, &oe) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(chunkResponse{Name: name, Offset: oe.Want})
			return
		}
		if err != nil {
			badRequest(w, err)
			return
		}
	} else if !complete {
		badRequest(w, fmt.Errorf("empty chunk (send bytes, or finish the upload with ?complete=1)"))
		return
	}
	if !complete {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(chunkResponse{Name: name, Offset: cur})
		return
	}
	payload, err := s.uploads.Assemble(name)
	if err != nil {
		badRequest(w, err)
		return
	}
	spec := ingest.Spec{Name: name, Trace: payload}
	if v := q.Get("mem_ops_per_kilo_instr"); v != "" {
		if spec.MemOpsPerKiloInstr, err = strconv.ParseFloat(v, 64); err != nil {
			badRequest(w, fmt.Errorf("mem_ops_per_kilo_instr must be a number, got %q", v))
			return
		}
	}
	if v := q.Get("ipc"); v != "" {
		if spec.IPC, err = strconv.ParseFloat(v, 64); err != nil {
			badRequest(w, fmt.Errorf("ipc must be a number, got %q", v))
			return
		}
	}
	if err := spec.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	if s.submitJob(w, r, job.Spec{Kind: job.KindIngest, Ingest: &spec}) {
		// The job spec now owns the assembled payload; the chunk records
		// have served their purpose. A rejected submission keeps them so
		// the client can retry the completion without re-uploading.
		_ = s.uploads.Discard(name)
	}
}

// handleWorkloadChunkOffset reports the upload's resume offset (0 for
// names never appended to).
func (s *Server) handleWorkloadChunkOffset(w http.ResponseWriter, r *http.Request) {
	if !s.uploadsReady(w) {
		return
	}
	name := r.PathValue("name")
	off, err := s.uploads.Offset(name)
	if err != nil {
		badRequest(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(chunkResponse{Name: name, Offset: off})
}
