package server

// End-to-end tests of the persistence + async-job layer: job lifecycle
// over HTTP, async/sync artifact byte-identity, store-warmed restarts, and
// the BenchmarkWarmRestart measurement EXPERIMENTS.md reports.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coldtall"
	"coldtall/internal/job"
)

// newStoreServer builds a server persisting into dir (none if dir is
// empty). Cleanup stops it.
func newStoreServer(t testing.TB, dir string) *Server {
	t.Helper()
	study := coldtall.NewStudy()
	s, err := New(study, Config{StoreDir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopStoreServer(s) })
	return s
}

// stopStoreServer stops s's jobs and closes its store, the state a drain
// leaves: a store directory is owned by one open Store at a time, so a
// "restart" stops the first server before the second opens the directory.
func stopStoreServer(s *Server) {
	s.jobs.Close()
	if s.st != nil {
		s.st.Close()
	}
}

// pollJob polls the status endpoint until the job is terminal.
func pollJob(t *testing.T, h http.Handler, id string) job.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rr := get(t, h, "/v1/jobs/"+id)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d: %s", id, rr.Code, rr.Body)
		}
		var st job.Status
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return job.Status{}
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler

	// Submit: 202 with a Location header and a queued/running status.
	rr := post(t, h, "/v1/jobs", `{"kind":"sweep","points":[{"cell":"SRAM"}],"benchmarks":["namd"]}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || rr.Header().Get("Location") != "/v1/jobs/"+sub.ID {
		t.Fatalf("submit status %+v, Location %q", sub, rr.Header().Get("Location"))
	}

	// Resubmitting the same spec is idempotent.
	rr2 := post(t, h, "/v1/jobs", `{"kind":"sweep","points":[{"cell":"SRAM"}],"benchmarks":["namd"]}`)
	var sub2 job.Status
	if err := json.Unmarshal(rr2.Body.Bytes(), &sub2); err != nil {
		t.Fatal(err)
	}
	if sub2.ID != sub.ID {
		t.Errorf("resubmission created a second job: %s vs %s", sub2.ID, sub.ID)
	}

	st := pollJob(t, h, sub.ID)
	if st.State != job.StateDone || st.Done != st.Total {
		t.Fatalf("final status %+v", st)
	}

	// The job table lists it.
	var list struct {
		Jobs []job.Status `json:"jobs"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/jobs").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}

	// The result is sweep JSON with one row.
	res := get(t, h, "/v1/jobs/"+sub.ID+"/result")
	if res.Code != http.StatusOK || !strings.HasPrefix(res.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("result = %d %q", res.Code, res.Header().Get("Content-Type"))
	}
	var sweep struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(res.Body.Bytes(), &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != 1 || sweep.Rows[0]["benchmark"] != "namd" {
		t.Errorf("sweep rows = %+v", sweep.Rows)
	}
}

func TestJobEndpointErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler

	if rr := post(t, h, "/v1/jobs", `{"kind":"nope"}`); rr.Code != http.StatusBadRequest {
		t.Errorf("bad kind = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/jobs/jdoesnotexist"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job status = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/jobs/jdoesnotexist/result"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job result = %d", rr.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/jobs/jdoesnotexist", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound {
		t.Errorf("unknown job cancel = %d", rr.Code)
	}
}

// TestAsyncArtifactMatchesSyncEndpoint is the byte-identity acceptance
// criterion for every kind both surfaces serve: the async job's /result
// body and Content-Type equal the synchronous response's, and a spec one
// surface rejects with 400 the other rejects with 400 and the same message
// (the job layer prefixes "job: ").
func TestAsyncArtifactMatchesSyncEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler

	cases := []struct {
		name string
		// syncPath is POSTed syncBody, or fetched with GET when syncBody
		// is empty.
		syncPath, syncBody string
		spec               string
		invalid            bool
	}{
		{name: "characterize", syncPath: "/v1/characterize", syncBody: `{"cell":"PCM","dies":8}`,
			spec: `{"kind":"characterize","points":[{"cell":"PCM","dies":8}]}`},
		{name: "evaluate", syncPath: "/v1/evaluate", syncBody: `{"point":{"cell":"SRAM","temperature_k":77},"benchmark":"mcf"}`,
			spec: `{"kind":"evaluate","points":[{"cell":"SRAM","temperature_k":77}],"benchmarks":["mcf"]}`},
		{name: "sweep 2x2", syncPath: "/v1/sweep",
			syncBody: `{"points":[{"cell":"SRAM"},{"cell":"STT-RAM","dies":4}],"benchmarks":["namd","lbm"]}`,
			spec:     `{"kind":"sweep","points":[{"cell":"SRAM"},{"cell":"STT-RAM","dies":4}],"benchmarks":["namd","lbm"]}`},
		{name: "sweep all benchmarks", syncPath: "/v1/sweep", syncBody: `{"points":[{"cell":"3T-eDRAM","temperature_k":200}]}`,
			spec: `{"kind":"sweep","points":[{"cell":"3T-eDRAM","temperature_k":200}]}`},
		{name: "artifact", syncPath: "/v1/artifacts/fig1?format=csv",
			spec: `{"kind":"artifact","artifact":"fig1"}`},
		{name: "artifact workload", syncPath: "/v1/workloads/namd/artifacts/fig5?format=csv",
			spec: `{"kind":"artifact","artifact":"fig5","workload":"namd"}`},
		{name: "invalid benchmark", syncPath: "/v1/sweep", syncBody: `{"points":[{"cell":"SRAM"}],"benchmarks":["namd","nope"]}`,
			spec: `{"kind":"sweep","points":[{"cell":"SRAM"}],"benchmarks":["namd","nope"]}`, invalid: true},
		{name: "invalid point", syncPath: "/v1/characterize", syncBody: `{"cell":"SRAM","dies":-2}`,
			spec: `{"kind":"characterize","points":[{"cell":"SRAM","dies":-2}]}`, invalid: true},
		{name: "invalid empty sweep", syncPath: "/v1/sweep", syncBody: `{"points":[]}`,
			spec: `{"kind":"sweep","points":[]}`, invalid: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sync *httptest.ResponseRecorder
			if tc.syncBody == "" {
				sync = get(t, h, tc.syncPath)
			} else {
				sync = post(t, h, tc.syncPath, tc.syncBody)
			}
			rr := post(t, h, "/v1/jobs", tc.spec)
			if tc.invalid {
				if sync.Code != http.StatusBadRequest || rr.Code != http.StatusBadRequest {
					t.Fatalf("sync = %d, async submit = %d, want both 400", sync.Code, rr.Code)
				}
				if rr.Body.String() != "job: "+sync.Body.String() {
					t.Errorf("rejection messages differ:\nsync:  %q\nasync: %q", sync.Body, rr.Body)
				}
				return
			}
			if sync.Code != http.StatusOK {
				t.Fatalf("sync = %d: %s", sync.Code, sync.Body)
			}
			if rr.Code != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
			}
			var sub job.Status
			if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
				t.Fatal(err)
			}
			if st := pollJob(t, h, sub.ID); st.State != job.StateDone {
				t.Fatalf("job state = %s (%s)", st.State, st.Error)
			}
			res := get(t, h, "/v1/jobs/"+sub.ID+"/result")
			if res.Code != http.StatusOK {
				t.Fatalf("result = %d", res.Code)
			}
			if res.Body.String() != sync.Body.String() {
				t.Errorf("async result diverged from the synchronous response:\nsync:  %.300s\nasync: %.300s", sync.Body, res.Body)
			}
			if got, want := res.Header().Get("Content-Type"), sync.Header().Get("Content-Type"); got != want {
				t.Errorf("result content type = %q, sync %q", got, want)
			}
		})
	}
}

// TestSweepInfeasibleGridSameError: a grid with a point no organization
// can realize fails the same way through /v1/sweep and through an async
// sweep job, since both run the one sweep engine.
func TestSweepInfeasibleGridSameError(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler
	const grid = `"points":[{"cell":"SRAM"},{"cell":"SRAM","capacity_bytes":64},{"cell":"PCM","capacity_bytes":128}],"benchmarks":["namd"]`
	sync := post(t, h, "/v1/sweep", "{"+grid+"}")
	if sync.Code != http.StatusInternalServerError || !strings.Contains(sync.Body.String(), "no feasible organization") {
		t.Fatalf("sync sweep = %d: %s, want 500 naming the infeasible point", sync.Code, sync.Body)
	}
	rr := post(t, h, "/v1/jobs", `{"kind":"sweep",`+grid+"}")
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, h, sub.ID)
	if st.State != job.StateFailed {
		t.Fatalf("job state = %s, want failed", st.State)
	}
	if st.Error+"\n" != sync.Body.String() {
		t.Errorf("errors differ:\nsync:  %q\nasync: %q", sync.Body, st.Error)
	}
}

// TestStoreWarmedRestart is the restart acceptance criterion: a second
// server over the same store directory serves a previously-built artifact
// without re-running the optimizer (zero invocations on its cold
// explorer). Response bodies are not stored, so the body re-renders from
// the persisted characterizations: a response-cache miss with the same
// bytes.
func TestStoreWarmedRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir)
	first := get(t, s1.handler, "/v1/artifacts/fig1?format=csv")
	if first.Code != http.StatusOK {
		t.Fatalf("first boot artifact = %d", first.Code)
	}
	if calls := s1.study.Explorer().OptimizeCalls(); calls == 0 {
		t.Fatal("first boot was supposed to compute (test setup broken)")
	}

	// "Restart": a brand-new server + study over the same directory.
	stopStoreServer(s1)
	s2 := newStoreServer(t, dir)
	second := get(t, s2.handler, "/v1/artifacts/fig1?format=csv")
	if second.Code != http.StatusOK {
		t.Fatalf("second boot artifact = %d", second.Code)
	}
	if second.Body.String() != first.Body.String() {
		t.Error("store-warmed response diverged from the original")
	}
	if calls := s2.study.Explorer().OptimizeCalls(); calls != 0 {
		t.Errorf("store-warmed boot ran the optimizer %d times, want 0", calls)
	}
	if second.Header().Get("X-Cache") != "miss" {
		t.Errorf("store-warmed response X-Cache = %q, want miss (re-rendered from char|)", second.Header().Get("X-Cache"))
	}
}

// TestStoreHoldsOnlyCharacterizations: the store gets one durable write
// per computed point. Never-seen characterize, evaluate, sweep, pareto
// and artifact requests write one char| entry per optimizer run and
// nothing else; repeating them writes nothing; and a restarted server
// re-renders every body from char| byte for byte, without the optimizer
// and without a write.
func TestStoreHoldsOnlyCharacterizations(t *testing.T) {
	dir := t.TempDir()
	reqs := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/characterize", `{"cell":"PCM","temperature_k":200}`},
		{http.MethodPost, "/v1/evaluate", `{"point":{"cell":"SRAM","temperature_k":150},"benchmark":"lbm"}`},
		{http.MethodPost, "/v1/sweep", `{"points":[{"cell":"STT-RAM"},{"cell":"3T-eDRAM","temperature_k":77}],"benchmarks":["namd","mcf"]}`},
		{http.MethodPost, "/v1/pareto", `{"cell":"SRAM","dies":2}`},
		{http.MethodGet, "/v1/artifacts/fig1?format=csv", ""},
	}
	serveAll := func(s *Server) []string {
		bodies := make([]string, len(reqs))
		for i, r := range reqs {
			var rr *httptest.ResponseRecorder
			if r.method == http.MethodPost {
				rr = post(t, s.handler, r.path, r.body)
			} else {
				rr = get(t, s.handler, r.path)
			}
			if rr.Code != http.StatusOK {
				t.Fatalf("%s %s = %d: %s", r.method, r.path, rr.Code, rr.Body)
			}
			bodies[i] = rr.Body.String()
		}
		return bodies
	}

	s1 := newStoreServer(t, dir)
	first := serveAll(s1)
	chars := 0
	err := s1.st.Walk("", func(key string, _ []byte) error {
		if !strings.HasPrefix(key, "char|") {
			t.Errorf("store holds %q, want char| entries only", key)
		}
		chars++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	puts, calls := s1.st.Stats().Puts, s1.study.Explorer().OptimizeCalls()
	if calls == 0 || int64(chars) != calls || puts != calls {
		t.Errorf("%d optimizer runs made %d puts and %d char| entries, want one of each per run", calls, puts, chars)
	}
	serveAll(s1)
	if p := s1.st.Stats().Puts; p != puts {
		t.Errorf("repeated requests wrote %d entries, want 0", p-puts)
	}

	stopStoreServer(s1)
	s2 := newStoreServer(t, dir)
	second := serveAll(s2)
	for i := range reqs {
		if second[i] != first[i] {
			t.Errorf("%s %s: restarted server's body differs from the first boot's", reqs[i].method, reqs[i].path)
		}
	}
	if c := s2.study.Explorer().OptimizeCalls(); c != 0 {
		t.Errorf("restarted server ran the optimizer %d times, want 0", c)
	}
	if p := s2.st.Stats().Puts; p != 0 {
		t.Errorf("restarted server wrote %d entries re-rendering stored points, want 0", p)
	}
}

// TestCharacterizationPersistsAcrossRestart: even when the exact response
// was never cached, a restarted server reuses persisted characterizations
// — a new benchmark against a known point costs arithmetic, not an
// optimizer search.
func TestCharacterizationPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir)
	if rr := post(t, s1.handler, "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"namd"}`); rr.Code != http.StatusOK {
		t.Fatalf("first boot evaluate = %d: %s", rr.Code, rr.Body)
	}

	stopStoreServer(s1)
	s2 := newStoreServer(t, dir)
	// Different benchmark, same point: the response cache misses but the
	// characterization comes from the store.
	if rr := post(t, s2.handler, "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"lbm"}`); rr.Code != http.StatusOK {
		t.Fatalf("second boot evaluate = %d: %s", rr.Code, rr.Body)
	}
	if calls := s2.study.Explorer().OptimizeCalls(); calls != 0 {
		t.Errorf("restarted server ran the optimizer %d times for a stored point, want 0", calls)
	}
}

// TestJobSurvivesServerRestart: the HTTP-level crash-recovery story — a
// sweep job interrupted by a dying server completes on the next boot from
// the characterizations the store holds (the mid-sweep kill is pinned in
// internal/job).
func TestJobSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir)
	body := `{"kind":"sweep","points":[{"cell":"SRAM"},{"cell":"3T-eDRAM","temperature_k":77}],"benchmarks":["namd"]}`
	rr := post(t, s1.handler, "/v1/jobs", body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	// Let it finish, then forge the record back to "running" — the state
	// a SIGKILL'd process leaves on disk (characterizations intact, record
	// never transitioned). The next boot must resume and complete it.
	if st := pollJob(t, s1.handler, sub.ID); st.State != job.StateDone {
		t.Fatalf("first boot job state = %s", st.State)
	}
	rec := fmt.Sprintf(`{"id":%q,"spec":{"kind":"sweep","points":[{"cell":"SRAM"},{"cell":"3T-eDRAM","temperature_k":77}],"benchmarks":["namd"]},"state":"running","done":2,"total":2}`, sub.ID)
	if err := s1.st.Put("job|"+sub.ID, []byte(rec)); err != nil {
		t.Fatal(err)
	}

	stopStoreServer(s1)
	s2 := newStoreServer(t, dir)
	st := pollJob(t, s2.handler, sub.ID)
	if st.State != job.StateDone || st.Done != 2 {
		t.Fatalf("recovered job status = %+v", st)
	}
	if calls := s2.study.Explorer().OptimizeCalls(); calls != 0 {
		t.Errorf("recovered job ran the optimizer %d times, want 0 (every point in char|)", calls)
	}
	res := get(t, s2.handler, "/v1/jobs/"+sub.ID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("recovered result = %d", res.Code)
	}
}

// TestEvictionMetricTicks: overflowing the response cache surfaces in
// coldtall_cache_evictions_total.
func TestEvictionMetricTicks(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: 16})
	t.Cleanup(s.jobs.Close)
	// Fill well past capacity straight through the cache (the handler
	// path would need dozens of sweeps; the metric hookup is what's under
	// test).
	for i := 0; i < 64; i++ {
		s.respCache.Add(fmt.Sprintf("key-%d", i), []byte("x"))
	}
	if s.met.evictions.Value() == 0 {
		t.Error("coldtall_cache_evictions_total never ticked under capacity pressure")
	}
	body := get(t, s.handler, "/metrics").Body.String()
	if !strings.Contains(body, "coldtall_cache_evictions_total") {
		t.Error("evictions counter missing from the exposition")
	}
}

// TestJobMetrics: the transition hook feeds the running gauge and
// terminal-state counters.
func TestJobMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.handler
	rr := post(t, h, "/v1/jobs", `{"kind":"artifact","artifact":"table1"}`)
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	pollJob(t, h, sub.ID)
	body := get(t, h, "/metrics").Body.String()
	if !strings.Contains(body, `coldtall_jobs_total{state="done"} 1`) {
		t.Errorf("metrics missing done-job counter:\n%s", body)
	}
	if !strings.Contains(body, "coldtall_jobs_running 0") {
		t.Error("jobs-running gauge did not return to 0")
	}
}

// BenchmarkWarmRestart quantifies the store's boot-time win for
// EXPERIMENTS.md: time-to-first-Table-II on a cold boot (full
// characterization sweep) vs a store-warmed boot (the body re-rendered
// from char| entries read off disk). Each iteration is one boot; run with
// -benchtime 20x.
func BenchmarkWarmRestart(b *testing.B) {
	dir := b.TempDir()
	// Populate the store once (this cost is the cold path, measured
	// below).
	seed := newStoreServer(b, dir)
	if rr := benchGet(b, seed.handler, "/v1/artifacts/table2?format=csv"); rr.Code != http.StatusOK {
		b.Fatalf("seed boot = %d", rr.Code)
	}
	stopStoreServer(seed)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newStoreServer(b, b.TempDir()) // empty store: nothing to warm
			b.StartTimer()
			if rr := benchGet(b, s.handler, "/v1/artifacts/table2?format=csv"); rr.Code != http.StatusOK {
				b.Fatalf("cold boot = %d", rr.Code)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newStoreServer(b, dir)
			b.StartTimer()
			if rr := benchGet(b, s.handler, "/v1/artifacts/table2?format=csv"); rr.Code != http.StatusOK {
				b.Fatalf("warm boot = %d", rr.Code)
			}
			b.StopTimer()
			stopStoreServer(s)
			b.StartTimer()
		}
	})
}

func benchGet(b *testing.B, h http.Handler, path string) *httptest.ResponseRecorder {
	b.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

// breakEvenSweep is the EXPERIMENTS.md break-even grid as a job spec: 4
// cells x 4 temperatures x 4 die counts, 64 points, over namd, lbm and
// mcf — 192 cells.
func breakEvenSweep() string {
	var pts []string
	for _, c := range []string{"SRAM", "3T-eDRAM", "PCM", "STT-RAM"} {
		for _, temp := range []int{33, 111, 222, 333} {
			for _, dies := range []int{1, 2, 4, 8} {
				pts = append(pts, fmt.Sprintf(`{"cell":%q,"temperature_k":%d,"dies":%d}`, c, temp, dies))
			}
		}
	}
	return `{"kind":"sweep","points":[` + strings.Join(pts, ",") + `],"benchmarks":["namd","lbm","mcf"]}`
}

// BenchmarkSweepJob times the async sweep of the break-even grid end to
// end, from POST /v1/jobs to the done transition, on a fresh server per
// iteration (and, with the store on, a fresh store directory), so every
// point is never-seen by the server. puts/op is the store writes of one
// sweep. Run with -benchtime 10x: each iteration is one boot and sweep.
func BenchmarkSweepJob(b *testing.B) {
	body := breakEvenSweep()
	for _, withStore := range []bool{false, true} {
		name := "nostore"
		if withStore {
			name = "store"
		}
		b.Run(name, func(b *testing.B) {
			var puts int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := ""
				if withStore {
					dir = b.TempDir()
				}
				s := newStoreServer(b, dir)
				b.StartTimer()
				rr := httptest.NewRecorder()
				s.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
				if rr.Code != http.StatusAccepted {
					b.Fatalf("submit = %d: %s", rr.Code, rr.Body)
				}
				var sub job.Status
				if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
					b.Fatal(err)
				}
				js, ok := s.jobs.Subscribe(sub.ID)
				if !ok {
					b.Fatalf("sweep job %s unknown", sub.ID)
				}
				<-js.Done()
				st := js.Status()
				js.Close()
				b.StopTimer()
				if st.State != job.StateDone {
					b.Fatalf("sweep job = %+v", st)
				}
				stopStoreServer(s)
				if s.st != nil {
					puts += s.st.Stats().Puts
				}
			}
			if withStore {
				b.ReportMetric(float64(puts)/float64(b.N), "puts/op")
			}
		})
	}
}
