package server

// The server tests exercise the acceptance criteria end to end through
// httptest: golden-pinned JSON responses (refresh with
// `go test ./internal/server -run Golden -update`), table output matching
// the CLI's artifact tables, stampede coalescing (N identical concurrent
// requests cost one characterization), cache-hit metrics, 429 shedding
// under saturation, and a -race graceful drain over a real listener.

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"coldtall"
	"coldtall/internal/array"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden JSON snapshots")

// newTestServer builds a server over a fresh study with quiet logs.
func newTestServer(t *testing.T, cfg Config) (*Server, *coldtall.Study) {
	t.Helper()
	study := coldtall.NewStudy()
	cfg.Logger = log.New(io.Discard, "", 0)
	s, err := New(study, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, study
}

// checkGolden compares body against testdata/<name>, rewriting on -update.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (refresh with -update): %v", path, err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s drifted from golden snapshot:\ngot:  %s\nwant: %s", name, body, want)
	}
}

// post sends a JSON body through the full middleware chain.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

func TestCharacterizeGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rr := post(t, s.handler, "/v1/characterize", `{"cell":"SRAM"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	checkGolden(t, "characterize_sram.golden.json", rr.Body.Bytes())
}

// TestTable2MatchesCLI is the core acceptance check: the HTTP table answer
// carries exactly the schema and rows the CLI's Table II export renders,
// and the alias route answers with the registry artifact.
func TestTable2MatchesCLI(t *testing.T) {
	s, study := newTestServer(t, Config{})
	rr := get(t, s.handler, "/v1/tables/2")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rr.Code, rr.Body)
	}
	var got struct {
		Name    string `json:"name"`
		File    string `json:"file"`
		Paper   string `json:"paper"`
		Columns []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"columns"`
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want, err := study.ArtifactTable("table2.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "table2" || got.File != "table2.csv" || got.Paper != "Table II" {
		t.Errorf("identity = %q/%q/%q", got.Name, got.File, got.Paper)
	}
	var colNames []string
	for _, c := range got.Columns {
		colNames = append(colNames, c.Name)
	}
	if fmt.Sprint(colNames) != fmt.Sprint(want.Columns) {
		t.Errorf("columns = %v, want %v", colNames, want.Columns)
	}
	// Rows are typed JSON now; re-marshal both sides and compare the wire
	// form (the CLI table's JSONRows is the same policy the server uses).
	gotRows, err := json.Marshal(got.Rows)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := json.Marshal(want.JSONRows())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRows, wantRows) {
		t.Errorf("rows drifted from the CLI artifact table:\ngot:  %s\nwant: %s", gotRows, wantRows)
	}
	checkGolden(t, "table2.golden.json", rr.Body.Bytes())

	// The alias is the generic route: byte-identical body, shared cache
	// entry (the alias answer comes back as a hit on the artifact key).
	generic := get(t, s.handler, "/v1/artifacts/table2")
	if !bytes.Equal(generic.Body.Bytes(), rr.Body.Bytes()) {
		t.Error("alias /v1/tables/2 and /v1/artifacts/table2 answer differently")
	}
	if xc := generic.Header().Get("X-Cache"); xc != "hit" {
		t.Errorf("generic route after alias: X-Cache = %q, want hit (shared key)", xc)
	}

	// The CSV rendering is the CLI export byte for byte, whether asked for
	// by query parameter or by Accept header.
	rr = get(t, s.handler, "/v1/tables/2?format=csv")
	if rr.Code != http.StatusOK {
		t.Fatalf("csv status = %d", rr.Code)
	}
	var cli bytes.Buffer
	if err := study.RenderArtifactCSV(&cli, "table2.csv"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rr.Body.Bytes(), cli.Bytes()) {
		t.Error("CSV response differs from the CLI export")
	}
	if _, err := csv.NewReader(rr.Body).ReadAll(); err != nil {
		t.Errorf("response is not valid CSV: %v", err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/artifacts/table2", nil)
	req.Header.Set("Accept", "text/csv")
	acc := httptest.NewRecorder()
	s.handler.ServeHTTP(acc, req)
	if !bytes.Equal(acc.Body.Bytes(), cli.Bytes()) {
		t.Error("Accept: text/csv negotiation differs from ?format=csv")
	}
}

// TestArtifactCatalog asserts GET /v1/artifacts lists every registry
// artifact with its typed schema, in paper order.
func TestArtifactCatalog(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rr := get(t, s.handler, "/v1/artifacts")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rr.Code, rr.Body)
	}
	var got struct {
		Artifacts []struct {
			Name    string `json:"name"`
			File    string `json:"file"`
			Title   string `json:"title"`
			Columns []struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
				Unit string `json:"unit"`
			} `json:"columns"`
		} `json:"artifacts"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := coldtall.Artifacts().Descriptors()
	if len(got.Artifacts) != len(want) {
		t.Fatalf("catalog has %d artifacts, registry has %d", len(got.Artifacts), len(want))
	}
	for i, d := range want {
		a := got.Artifacts[i]
		if a.Name != d.Name || a.File != d.File || a.Title != d.Title {
			t.Errorf("catalog[%d] = %q/%q, want %q/%q", i, a.Name, a.File, d.Name, d.File)
		}
		if len(a.Columns) != len(d.Columns) {
			t.Errorf("%s: catalog has %d columns, schema has %d", d.Name, len(a.Columns), len(d.Columns))
			continue
		}
		for j, c := range d.Columns {
			if a.Columns[j].Name != c.Name || a.Columns[j].Kind != c.Kind.String() || a.Columns[j].Unit != c.Unit {
				t.Errorf("%s column %d = %+v, want %s/%s/%s", d.Name, j, a.Columns[j], c.Name, c.Kind, c.Unit)
			}
		}
	}
}

// TestArtifactsByteIdenticalAcrossSurfaces is the registry's consistency
// contract, per artifact: the file Export writes, the CLI's streamed CSV,
// the generic HTTP route and (where one exists) the figure/table alias all
// produce the same bytes from one study.
func TestArtifactsByteIdenticalAcrossSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("full export + HTTP round trips in -short mode")
	}
	s, study := newTestServer(t, Config{})
	dir := t.TempDir()
	if err := study.Export(dir); err != nil {
		t.Fatal(err)
	}
	for _, d := range coldtall.Artifacts().Descriptors() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			exported, err := os.ReadFile(filepath.Join(dir, d.File))
			if err != nil {
				t.Fatal(err)
			}
			var cli bytes.Buffer
			if err := study.RenderArtifactCSV(&cli, d.Name); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cli.Bytes(), exported) {
				t.Error("RenderArtifactCSV differs from the Export file")
			}
			rr := get(t, s.handler, "/v1/artifacts/"+d.Name+"?format=csv")
			if rr.Code != http.StatusOK {
				t.Fatalf("http status = %d, body = %s", rr.Code, rr.Body)
			}
			if !bytes.Equal(rr.Body.Bytes(), exported) {
				t.Error("HTTP CSV differs from the Export file")
			}
			aliasPath := ""
			if n, ok := strings.CutPrefix(d.Name, "fig"); ok {
				aliasPath = "/v1/figures/" + n
			} else if n, ok := strings.CutPrefix(d.Name, "table"); ok {
				aliasPath = "/v1/tables/" + n
			}
			if aliasPath != "" {
				alias := get(t, s.handler, aliasPath+"?format=csv")
				if !bytes.Equal(alias.Body.Bytes(), exported) {
					t.Errorf("alias %s differs from the Export file", aliasPath)
				}
			}
		})
	}
}

// TestStampedeComputesOnce floods one uncached point with identical
// concurrent requests: every caller gets the same 200, and the explorer
// runs exactly one organization search.
func TestStampedeComputesOnce(t *testing.T) {
	s, study := newTestServer(t, Config{})
	if n := study.Explorer().OptimizeCalls(); n != 0 {
		t.Fatalf("fresh study has %d optimize calls", n)
	}
	const n = 12
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rr := post(t, s.handler, "/v1/characterize", `{"cell":"SRAM","dies":2}`)
			if rr.Code != http.StatusOK {
				t.Errorf("caller %d: status %d: %s", i, rr.Code, rr.Body)
				return
			}
			bodies[i] = rr.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	if calls := study.Explorer().OptimizeCalls(); calls != 1 {
		t.Errorf("%d concurrent identical requests ran %d characterizations, want 1", n, calls)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("caller %d saw a different body", i)
		}
	}
}

// gateTier holds the explorer's characterization lookups until gate
// closes, then misses: a request that reaches the optimizer parks at a
// known point. entered closes at the first lookup.
type gateTier struct {
	gate, entered chan struct{}
	once          sync.Once
}

func (g *gateTier) Load(string) (array.Result, bool) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return array.Result{}, false
}

func (g *gateTier) Store(string, array.Result) {}

// TestFollowerOutlivesCancelledLeader: two identical requests share one
// computation, and the client that started it disconnects mid-search. The
// other client is still connected: it gets 200 and the bytes of an
// uncancelled request, not the first client's cancellation.
func TestFollowerOutlivesCancelledLeader(t *testing.T) {
	const path, body = "/v1/characterize", `{"cell":"PCM","dies":4}`
	ref, _ := newTestServer(t, Config{})
	want := post(t, ref.handler, path, body)
	if want.Code != http.StatusOK {
		t.Fatalf("reference = %d: %s", want.Code, want.Body)
	}

	s, study := newTestServer(t, Config{})
	tier := &gateTier{gate: make(chan struct{}), entered: make(chan struct{})}
	study.Explorer().SetPersistence(tier)
	h := s.handler
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		leader <- rr
	}()
	<-tier.entered
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { follower <- post(t, h, path, body) }()
	// The follower counts its cache miss just before it joins the
	// leader's flight; give it a moment to park there.
	for s.met.cacheMisses.Value() < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(tier.gate)
	if rr := <-leader; rr.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled leader = %d: %s, want 503", rr.Code, rr.Body)
	}
	got := <-follower
	if got.Code != http.StatusOK {
		t.Fatalf("live follower = %d: %s, want 200", got.Code, got.Body)
	}
	if got.Body.String() != want.Body.String() {
		t.Errorf("live follower body diverged from an uncancelled request:\n got %s\nwant %s", got.Body, want.Body)
	}
}

// TestTimedOutDuplicatesShareDeadline: two identical requests for a
// computation slower than Config.Timeout. The second waits on the first's
// computation only until its own deadline, which runs from its arrival:
// it answers 504 after about one Timeout, without rerunning the
// computation, and the first answers 504 as well. The optimizer runs
// once.
func TestTimedOutDuplicatesShareDeadline(t *testing.T) {
	const path, body = "/v1/characterize", `{"cell":"PCM","dies":4}`
	const timeout = 200 * time.Millisecond
	s, study := newTestServer(t, Config{Timeout: timeout})
	tier := &gateTier{gate: make(chan struct{}), entered: make(chan struct{})}
	study.Explorer().SetPersistence(tier)
	h := s.handler
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- post(t, h, path, body) }()
	<-tier.entered
	start := time.Now()
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { follower <- post(t, h, path, body) }()
	var got *httptest.ResponseRecorder
	select {
	case got = <-follower:
	case <-time.After(20 * timeout):
		close(tier.gate)
		t.Fatalf("follower still waiting %v after arriving, past its %v deadline", time.Since(start), timeout)
	}
	elapsed := time.Since(start)
	// The leader's deadline fell just before the follower's; give its
	// timer time to fire before the leader's search resumes.
	time.Sleep(timeout)
	close(tier.gate)
	if got.Code != http.StatusGatewayTimeout {
		t.Errorf("follower = %d: %s, want 504", got.Code, got.Body)
	}
	if elapsed < timeout {
		t.Errorf("follower answered after %v, before its %v deadline", elapsed, timeout)
	}
	if rr := <-leader; rr.Code != http.StatusGatewayTimeout {
		t.Errorf("leader = %d: %s, want 504", rr.Code, rr.Body)
	}
	if n := study.Explorer().OptimizeCalls(); n != 1 {
		t.Errorf("optimizer ran %d times, want 1", n)
	}
}

// TestExpiredDeadlineAnswers504: with a deadline that passes before any
// work starts, artifacts whose generators used to run their grids off the
// request's context (coldtall, reliability) answer 504 like every other
// artifact instead of computing the whole grid.
func TestExpiredDeadlineAnswers504(t *testing.T) {
	s, _ := newTestServer(t, Config{Timeout: time.Nanosecond})
	for _, name := range []string{"coldtall", "reliability"} {
		rr := get(t, s.handler, "/v1/artifacts/"+name+"?format=csv")
		if rr.Code != http.StatusGatewayTimeout {
			t.Errorf("%s = %d: %.200s, want 504", name, rr.Code, rr.Body)
		}
	}
}

// TestRepeatRequestServedFromCache re-sends an identical request and
// asserts it is answered from the response cache: X-Cache flips to hit, the
// hit counter on /metrics increments, and no new characterization runs.
func TestRepeatRequestServedFromCache(t *testing.T) {
	s, study := newTestServer(t, Config{})
	first := post(t, s.handler, "/v1/characterize", `{"cell":"3T-eDRAM"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first: %d %s", first.Code, first.Body)
	}
	if xc := first.Header().Get("X-Cache"); xc != "miss" {
		t.Errorf("first X-Cache = %q, want miss", xc)
	}
	calls := study.Explorer().OptimizeCalls()

	// Same effective point, different spelling: defaults fill in, so the
	// canonical key matches and the response comes straight from the LRU.
	second := post(t, s.handler, "/v1/characterize", `{"cell":"3T-eDRAM","dies":1,"temperature_k":350}`)
	if second.Code != http.StatusOK {
		t.Fatalf("second: %d %s", second.Code, second.Body)
	}
	if xc := second.Header().Get("X-Cache"); xc != "hit" {
		t.Errorf("second X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Error("cached body differs from computed body")
	}
	if now := study.Explorer().OptimizeCalls(); now != calls {
		t.Errorf("repeat request ran %d new characterizations", now-calls)
	}
	metrics := get(t, s.handler, "/metrics").Body.String()
	if !strings.Contains(metrics, "coldtall_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit count:\n%s", metrics)
	}
	if st := s.respCache.Stats(); st.Hits < 1 {
		t.Errorf("cache stats = %+v, want at least one hit", st)
	}
}

// TestSaturationSheds429 fills every admission slot and asserts the next
// compute is shed with 429 + Retry-After — while cache hits keep flowing.
func TestSaturationSheds429(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInflight: 1})
	// Warm one entry so the hit path can be checked under saturation.
	if rr := post(t, s.handler, "/v1/characterize", `{"cell":"SRAM"}`); rr.Code != http.StatusOK {
		t.Fatalf("warmup: %d %s", rr.Code, rr.Body)
	}
	// Occupy the only admission slot, as a long-running sweep would.
	if !s.adm.tryAcquire("other") {
		t.Fatal("could not occupy the admission slot")
	}
	defer s.adm.release("other")

	rr := post(t, s.handler, "/v1/characterize", `{"cell":"SRAM","dies":4}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated compute: status = %d, want 429", rr.Code)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	// Cached responses must not be shed.
	if rr := post(t, s.handler, "/v1/characterize", `{"cell":"SRAM"}`); rr.Code != http.StatusOK {
		t.Errorf("cache hit shed under saturation: %d", rr.Code)
	}
	metrics := get(t, s.handler, "/metrics").Body.String()
	if !strings.Contains(metrics, "coldtall_shed_total 1") {
		t.Error("metrics missing shed count")
	}
}

// TestGracefulDrain serves on a real listener, cancels the serve context
// while a request is in flight, and asserts the request completes, Serve
// returns nil (a clean drain), and the port stops accepting.
func TestGracefulDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{DrainTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	base := "http://" + addr
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d before drain", resp.StatusCode)
	}

	// Put a compute in flight, then cancel while it runs. If the compute
	// wins the race and finishes first, the assertions still hold — the
	// request must succeed either way.
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/characterize", "application/json",
			strings.NewReader(`{"cell":"1T1C-eDRAM"}`))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil {
			inflight <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	if err := <-inflight; err != nil {
		t.Errorf("in-flight request was not drained cleanly: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve = %v, want nil after clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestClientErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.handler
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"unknown cell", http.MethodPost, "/v1/characterize", `{"cell":"FeRAM-ish"}`, http.StatusBadRequest},
		{"malformed json", http.MethodPost, "/v1/characterize", `{"cell":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/characterize", `{"cells":"SRAM"}`, http.StatusBadRequest},
		{"bad corner", http.MethodPost, "/v1/characterize", `{"cell":"PCM","corner":"typical"}`, http.StatusBadRequest},
		{"empty sweep", http.MethodPost, "/v1/sweep", `{"points":[]}`, http.StatusBadRequest},
		{"unknown benchmark", http.MethodPost, "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"doom"}`, http.StatusBadRequest},
		{"unknown figure", http.MethodGet, "/v1/figures/2", "", http.StatusNotFound},
		{"unknown table", http.MethodGet, "/v1/tables/9", "", http.StatusNotFound},
		{"unknown artifact", http.MethodGet, "/v1/artifacts/fig2", "", http.StatusNotFound},
		{"bad format", http.MethodGet, "/v1/tables/1?format=xml", "", http.StatusBadRequest},
		{"bad artifact format", http.MethodGet, "/v1/artifacts/fig1?format=xml", "", http.StatusBadRequest},
		{"wrong method", http.MethodGet, "/v1/characterize", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req := httptest.NewRequest(tc.method, tc.path, body)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != tc.want {
				t.Errorf("status = %d, want %d (body: %s)", rr.Code, tc.want, rr.Body)
			}
		})
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"cell":"SRAM","corner":"` + strings.Repeat("x", 256) + `"}`
	rr := post(t, s.handler, "/v1/characterize", big)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", rr.Code)
	}
}

// TestEvaluateAndSweep exercises the workload endpoints and checks the
// sweep grid shape and the null encoding of non-wearing lifetimes.
func TestEvaluateAndSweep(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rr := post(t, s.handler, "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"mcf"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", rr.Code, rr.Body)
	}
	var ev map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["total_power_w"].(float64) <= 0 {
		t.Error("total power not positive")
	}
	if v, present := ev["lifetime_years"]; !present || v != nil {
		t.Errorf("SRAM lifetime_years = %v, want explicit null (non-wearing)", v)
	}

	rr = post(t, s.handler, "/v1/sweep",
		`{"points":[{"cell":"SRAM"},{"cell":"SRAM","temperature_k":77}],"benchmarks":["mcf","lbm"]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", rr.Code, rr.Body)
	}
	var sw struct {
		Points     int              `json:"points"`
		Benchmarks int              `json:"benchmarks"`
		Rows       []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Points != 2 || sw.Benchmarks != 2 || len(sw.Rows) != 4 {
		t.Errorf("grid = %dx%d with %d rows, want 2x2 with 4", sw.Points, sw.Benchmarks, len(sw.Rows))
	}
}

func TestParetoEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rr := post(t, s.handler, "/v1/pareto", `{"cell":"SRAM"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("pareto: %d %s", rr.Code, rr.Body)
	}
	var pr struct {
		SearchSpace int              `json:"search_space"`
		Front       []map[string]any `json:"front"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Front) == 0 || pr.SearchSpace < len(pr.Front) {
		t.Errorf("front = %d of %d, want non-empty front within the search space", len(pr.Front), pr.SearchSpace)
	}
}

// TestMetricsExposition asserts the Prometheus text format carries the
// acceptance-criteria series: latency histogram, cache counters, gauges.
func TestMetricsExposition(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	post(t, s.handler, "/v1/characterize", `{"cell":"SRAM"}`)
	body := get(t, s.handler, "/metrics").Body.String()
	for _, want := range []string{
		"# TYPE coldtall_request_seconds histogram",
		"coldtall_request_seconds_bucket{le=\"+Inf\"}",
		"coldtall_request_seconds_sum",
		"coldtall_request_seconds_count",
		"# TYPE coldtall_http_inflight gauge",
		"# TYPE coldtall_cache_hits_total counter",
		"coldtall_cache_misses_total 1",
		"coldtall_http_requests_total{path=\"/v1/characterize\",code=\"200\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzTurns503WhileDraining(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if rr := get(t, s.handler, "/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rr.Code)
	}
	s.draining.Store(true)
	if rr := get(t, s.handler, "/healthz"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", rr.Code)
	}
}
