package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"coldtall/internal/job"
	"coldtall/internal/tenant"
)

// jobListResponse enumerates one page of the job table.
type jobListResponse struct {
	Jobs []job.Status `json:"jobs"`
	// NextCursor resumes the listing after this page; absent on the last
	// page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ownerName maps the tenant to the name recorded on jobs: the anonymous
// tier maps to "" so single-tenant deployments keep their exact
// pre-tenancy job records and status JSON.
func ownerName(t *tenant.Tenant) string {
	if t.Name() == tenant.AnonymousName {
		return ""
	}
	return t.Name()
}

// jobCost estimates a job's price in design-point evaluations, the unit
// tenant budgets are denominated in: one per grid cell for sweeps, the
// rendered point count for artifacts, one for everything request-sized.
func jobCost(spec job.Spec) int {
	if spec.Kind == job.KindArtifact {
		return artifactCost(spec.Artifact)
	}
	return spec.Cells()
}

// submitJob is the shared admission path for job-creating endpoints
// (POST /v1/jobs, /v1/workloads, and the distill/chunk-complete routes):
// tenant rate limit, budget charge, then quota-checked submission.
// Idempotent resubmissions of existing jobs are refunded — only newly
// queued work costs budget. It reports whether the job was accepted
// (a 202 was written); every failure path writes its own error response.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, spec job.Spec) bool {
	t := s.tenantFor(r)
	if ok, wait := t.AllowRequest(); !ok {
		s.shed(w, t, wait, "tenant rate limit exceeded, retry later")
		return false
	}
	cost := jobCost(spec)
	if ok, wait := t.ChargeEvals(cost); !ok {
		setBudgetHeaders(w, t)
		s.shed(w, t, wait, "tenant compute budget exhausted, retry later")
		return false
	}
	status, created, err := s.jobs.SubmitAs(spec, ownerName(t), t.MaxJobs())
	if err != nil {
		t.RefundEvals(cost)
		if errors.Is(err, job.ErrQuota) {
			s.shed(w, t, 0, fmt.Sprintf("tenant %q is at its concurrent-job quota (%d live jobs); wait for one to finish",
				t.Name(), t.MaxJobs()))
			return false
		}
		badRequest(w, err)
		return false
	}
	if !created {
		t.RefundEvals(cost)
	} else {
		s.met.tenantEvals(t.Name()).Add(int64(cost))
	}
	setBudgetHeaders(w, t)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+status.ID)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(status)
	return true
}

// handleJobSubmit accepts a job spec and answers 202 with the (possibly
// pre-existing — submission is idempotent) job's status. Long-running work
// belongs here instead of holding a synchronous request open: the client
// polls GET /v1/jobs/{id} (or streams it; see handleJobStatus) and fetches
// /v1/jobs/{id}/result when done.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec job.Spec
	if !s.decode(w, r, &spec) {
		return
	}
	s.submitJob(w, r, spec)
}

// handleJobList enumerates jobs ordered by ID, optionally filtered by
// ?state= and paginated with ?limit= plus the response's next_cursor.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	var q job.ListQuery
	if v := r.URL.Query().Get("state"); v != "" {
		st, err := job.ParseState(v)
		if err != nil {
			badRequest(w, err)
			return
		}
		q.State = st
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			badRequest(w, fmt.Errorf("limit must be a positive integer, got %q", v))
			return
		}
		q.Limit = n
	}
	q.Cursor = r.URL.Query().Get("cursor")
	page, next := s.jobs.ListPage(q)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(jobListResponse{Jobs: page, NextCursor: next})
}

// jobByID resolves the path ID or answers 404.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) (job.Status, bool) {
	id := r.PathValue("id")
	status, ok := s.jobs.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q", id), http.StatusNotFound)
		return job.Status{}, false
	}
	return status, true
}

// handleJobStatus reports one job's state and progress. Three shapes
// share the route:
//
//   - plain GET: one JSON snapshot (the original behaviour);
//   - Accept: text/event-stream: an SSE stream pushing a status event on
//     every progress or state change until the job is terminal (or the
//     server drains, which flushes a final "drain" event first);
//   - ?wait=30s: long-poll — the response blocks until state or progress
//     changes, the job finishes, or the wait lapses, then carries one
//     snapshot.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	status, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJobStatus(w, r, status.ID)
		return
	}
	if v := r.URL.Query().Get("wait"); v != "" {
		s.longPollJobStatus(w, r, status.ID, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(status)
}

// handleJobResult serves a done job's payload under its stored content
// type (sweep JSON, artifact CSV — the latter byte-identical to the
// synchronous /v1/artifacts/{name}?format=csv response). A job that is
// still running answers 409 with its state so pollers can tell "not yet"
// from "never".
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	status, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	body, ctype, ok := s.jobs.Result(status.ID)
	if !ok {
		http.Error(w, fmt.Sprintf("job %s has no result (state %s)", status.ID, status.State), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", ctype)
	_, _ = w.Write(body)
}

// handleJobCancel requests cancellation and answers with the job's status
// (cancellation is asynchronous: the state flips once the in-flight cell
// observes its context; a still-queued job is withdrawn immediately).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	status, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	s.jobs.Cancel(status.ID)
	status, _ = s.jobs.Get(status.ID)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(status)
}
