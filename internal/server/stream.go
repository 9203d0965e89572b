package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"coldtall/internal/job"
)

// ssePingInterval spaces keepalive comments so idle streams survive
// proxies with read timeouts.
const ssePingInterval = 15 * time.Second

// longPollMax caps ?wait= so a client cannot park a handler goroutine
// for hours.
const longPollMax = 5 * time.Minute

// writeSSE emits one Server-Sent Event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, st job.Status) {
	b, err := json.Marshal(st)
	if err != nil {
		// Status is plain data; Marshal cannot fail on it.
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

// streamJobStatus serves GET /v1/jobs/{id} as an SSE stream: a "status"
// event per observed change (latest-wins coalescing — a slow reader
// skips intermediate progress but always sees the terminal snapshot),
// then the stream closes. When the server starts draining, every live
// stream flushes a final "drain" event carrying the current status and
// disconnects, so graceful shutdown is never held open by subscribers;
// the client reconnects to the restarted server and follows the
// recovered job from there.
func (s *Server) streamJobStatus(w http.ResponseWriter, r *http.Request, id string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusNotImplemented)
		return
	}
	sub, ok := s.jobs.Subscribe(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q", id), http.StatusNotFound)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ping := time.NewTicker(ssePingInterval)
	defer ping.Stop()
	for {
		select {
		case st := <-sub.C:
			writeSSE(w, "status", st)
			fl.Flush()
			if st.State.Terminal() {
				return
			}
		case <-sub.Done():
			// Terminal transition with nothing pending on C (the snapshot
			// may already have been consumed above): emit the final state.
			writeSSE(w, "status", sub.Status())
			fl.Flush()
			return
		case <-s.drainCh:
			writeSSE(w, "drain", sub.Status())
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		}
	}
}

// longPollJobStatus serves GET /v1/jobs/{id}?wait=30s: the response
// blocks until the job's state or progress moves past the snapshot taken
// at arrival (or the job is already terminal, or the wait lapses, or the
// server drains), then carries one plain JSON status — a poll loop
// without the poll interval.
func (s *Server) longPollJobStatus(w http.ResponseWriter, r *http.Request, id, waitStr string) {
	wait, err := time.ParseDuration(waitStr)
	if err != nil || wait <= 0 {
		badRequest(w, fmt.Errorf("wait must be a positive duration like 30s, got %q", waitStr))
		return
	}
	if wait > longPollMax {
		wait = longPollMax
	}
	sub, ok := s.jobs.Subscribe(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q", id), http.StatusNotFound)
		return
	}
	defer sub.Close()
	respond := func(st job.Status) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	}
	entry := <-sub.C // primed with the current status
	if entry.State.Terminal() {
		respond(entry)
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case st := <-sub.C:
			if st.State != entry.State || st.Done != entry.Done || st.State.Terminal() {
				respond(st)
				return
			}
		case <-sub.Done():
			respond(sub.Status())
			return
		case <-timer.C:
			respond(sub.Status())
			return
		case <-s.drainCh:
			respond(sub.Status())
			return
		case <-r.Context().Done():
			return
		}
	}
}
