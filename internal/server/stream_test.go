package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coldtall/internal/job"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name   string
	status job.Status
}

// readSSE parses events off a live stream until it closes or maxEvents
// arrive. Callers reading a stream in stages must reuse one scanner —
// a fresh scanner on the same reader loses whatever the previous one
// had buffered ahead.
func readSSE(t *testing.T, sc *bufio.Scanner, maxEvents int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var st job.Status
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, sseEvent{name: name, status: st})
			name, data = "", ""
			if len(events) == maxEvents {
				return events
			}
		}
	}
	return events
}

// submitJobHTTP posts a job spec and returns its ID.
func submitJobHTTP(t *testing.T, h http.Handler, spec string) string {
	t.Helper()
	rr := post(t, h, "/v1/jobs", spec)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body)
	}
	var st job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestJobStatusSSE streams a job to its terminal state over a real
// connection and asserts the final event is terminal — and that the
// job's result bytes equal the synchronous endpoint's, so watching a job
// is observationally identical to computing it inline.
func TestJobStatusSSE(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.handler)
	defer ts.Close()

	id := submitJobHTTP(t, s.handler, `{"kind":"evaluate","points":[{"cell":"SRAM"}],"benchmarks":["namd"]}`)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	events := readSSE(t, bufio.NewScanner(resp.Body), 0) // read until the server closes the stream
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}
	last := events[len(events)-1]
	if last.name != "status" || last.status.State != job.StateDone {
		t.Fatalf("final event = %s/%s, want status/done", last.name, last.status.State)
	}
	if last.status.Done != last.status.Total {
		t.Errorf("terminal progress %d/%d", last.status.Done, last.status.Total)
	}

	// The watched job's result equals the synchronous evaluation.
	rr := get(t, s.handler, "/v1/jobs/"+id+"/result")
	if rr.Code != http.StatusOK {
		t.Fatalf("result: %d %s", rr.Code, rr.Body)
	}
	sync := post(t, s.handler, "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"namd"}`)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync evaluate: %d %s", sync.Code, sync.Body)
	}
	if rr.Body.String() != sync.Body.String() {
		t.Errorf("async result differs from sync response:\nasync: %s\nsync:  %s", rr.Body, sync.Body)
	}
}

// TestJobStatusLongPoll asserts ?wait= blocks until the job moves and
// returns a plain snapshot, and that a malformed wait is a 400.
func TestJobStatusLongPoll(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	id := submitJobHTTP(t, s.handler, `{"kind":"characterize","points":[{"cell":"3T-eDRAM"}]}`)
	st := waitJobDone(t, s, id)
	if st.State != job.StateDone {
		t.Fatalf("job finished %s", st.State)
	}
	// A terminal job answers a long-poll immediately.
	start := time.Now()
	rr := get(t, s.handler, "/v1/jobs/"+id+"?wait=30s")
	if rr.Code != http.StatusOK {
		t.Fatalf("terminal long-poll: %d", rr.Code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("terminal long-poll blocked %s", elapsed)
	}
	if rr := get(t, s.handler, "/v1/jobs/"+id+"?wait=forever"); rr.Code != http.StatusBadRequest {
		t.Errorf("wait=forever: %d, want 400", rr.Code)
	}
}

// TestDrainFlushesSSE is the graceful-drain acceptance test: with a live
// SSE subscriber attached to an unfinished job, shutting the server down
// must push a final event to the stream and close it — before the
// listener drain completes — instead of hanging Shutdown on an open
// stream or cutting the client off mid-event.
func TestDrainFlushesSSE(t *testing.T) {
	s, _ := newTestServer(t, Config{
		DrainTimeout:   10 * time.Second,
		StoreDir:       t.TempDir(),
		JobConcurrency: 1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Two ingest jobs on a one-slot manager: the first replays a few
	// million synthetic accesses (hundreds of milliseconds at least), so
	// the second is deterministically still queued — and its stream
	// deterministically live — when the drain starts.
	submit := func(name string, seed int) job.Status {
		spec := `{"kind":"ingest","ingest":{"name":"` + name + `","generator":` +
			`{"pattern":"zipf","zipf_skew":1.2,"working_set_bytes":33554432,"accesses":4000000,"seed":` +
			fmt.Sprint(seed) + `}}}`
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st job.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d", name, resp.StatusCode)
		}
		return st
	}
	submit("drain-first", 1)
	st := submit("drain-second", 2)

	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream status: %d", stream.StatusCode)
	}

	// Read the primed snapshot so the subscription is provably live, then
	// start the drain.
	sc := bufio.NewScanner(stream.Body)
	events := readSSE(t, sc, 1)
	if len(events) != 1 {
		t.Fatal("stream delivered no initial snapshot")
	}
	cancel()

	// The stream must deliver a final event and then close (readSSE
	// returns on EOF). The final event is "drain" when the job outlived
	// the shutdown, or a terminal "status" if it finished first.
	finalc := make(chan []sseEvent, 1)
	go func() { finalc <- readSSE(t, sc, 0) }()
	var final []sseEvent
	select {
	case final = <-finalc:
	case <-time.After(15 * time.Second):
		t.Fatal("stream not closed by the drain")
	}
	sawFlush := false
	for _, ev := range final {
		if ev.name == "drain" || (ev.name == "status" && ev.status.State.Terminal()) {
			sawFlush = true
		}
	}
	if !sawFlush {
		t.Fatalf("drain closed the stream without a final event (got %d events: %+v)", len(final), final)
	}

	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil (clean drain)", err)
	}
	// The drained port refuses new connections.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestStreamUnknownJob keeps the 404 contract on the streaming shapes.
func TestStreamUnknownJob(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/jdeadbeef00000000", nil)
	req.Header.Set("Accept", "text/event-stream")
	rr := httptest.NewRecorder()
	s.handler.ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound {
		t.Errorf("SSE for unknown job: %d, want 404", rr.Code)
	}
	if rr := get(t, s.handler, "/v1/jobs/jdeadbeef00000000?wait=1s"); rr.Code != http.StatusNotFound {
		t.Errorf("long-poll for unknown job: %d, want 404", rr.Code)
	}
}
