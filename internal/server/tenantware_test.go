package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coldtall/internal/array"
	"coldtall/internal/job"
)

// TestRetryAfterSeconds pins the load-aware hint: idle pools say "1",
// a saturated pool backs clients off harder, and a known bucket refill
// time raises the floor to when a retry can actually succeed.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name     string
		inUse    int
		capacity int
		wait     time.Duration
		want     int
	}{
		{"idle", 0, 4, 0, 1},
		{"quarter_load", 1, 4, 0, 2},
		{"half_load", 2, 4, 0, 4},
		{"saturated", 4, 4, 0, 8},
		{"zero_capacity", 0, 0, 0, 1},
		{"wait_raises_floor", 0, 4, 2500 * time.Millisecond, 3},
		{"wait_below_load_hint", 4, 4, time.Second, 8},
		{"wait_clamped", 1, 4, time.Hour, 60},
		{"subsecond_wait", 0, 4, 10 * time.Millisecond, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterSeconds(tc.inUse, tc.capacity, tc.wait); got != tc.want {
				t.Errorf("retryAfterSeconds(%d, %d, %s) = %d, want %d",
					tc.inUse, tc.capacity, tc.wait, got, tc.want)
			}
		})
	}
}

// TestAdmissionPoolWeightedShare drives the pool through the shapes the
// middleware depends on: a lone tenant owns the whole pool (pre-tenancy
// behaviour), contending tenants split it by weight, and every tenant
// keeps a floor of one slot.
func TestAdmissionPoolWeightedShare(t *testing.T) {
	weights := map[string]float64{"a": 3, "b": 1}
	pool := newAdmissionPool(4, func(n string) float64 { return weights[n] })

	// A lone tenant takes every slot.
	for i := 0; i < 4; i++ {
		if !pool.tryAcquire("a") {
			t.Fatalf("lone tenant refused slot %d", i)
		}
	}
	if pool.tryAcquire("a") {
		t.Fatal("acquired past capacity")
	}
	for i := 0; i < 4; i++ {
		pool.release("a")
	}

	// Under contention the split follows the 3:1 weights.
	if !pool.tryAcquire("b") {
		t.Fatal("b refused an empty pool")
	}
	for i := 0; i < 3; i++ {
		if !pool.tryAcquire("a") {
			t.Fatalf("a refused slot %d of its 3-slot share", i)
		}
	}
	if pool.tryAcquire("b") {
		t.Error("b exceeded its weighted share")
	}
	pool.release("a")
	// The freed slot belongs to a (b is at its share), and comes back to
	// b once a drains.
	if pool.tryAcquire("b") {
		t.Error("b acquired a's share while a holds slots")
	}
	if !pool.tryAcquire("a") {
		t.Error("a refused its own freed slot")
	}
	for i := 0; i < 3; i++ {
		pool.release("a")
	}
	if !pool.tryAcquire("b") {
		t.Error("b refused a slot after a drained")
	}

	// Floor: a heavyweight cannot squeeze a lightweight to zero slots.
	squeeze := newAdmissionPool(2, func(n string) float64 {
		if n == "heavy" {
			return 10
		}
		return 1
	})
	if !squeeze.tryAcquire("heavy") {
		t.Fatal("heavy refused an empty pool")
	}
	if !squeeze.tryAcquire("light") {
		t.Error("light squeezed below the one-slot floor")
	}
}

// writeTenantsFile drops a tenants config into a temp dir.
func writeTenantsFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// do sends a request with an optional API key through the full chain.
func doKeyed(t *testing.T, h http.Handler, method, path, key, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestAPIKeyAuth(t *testing.T) {
	path := writeTenantsFile(t, `{
		"tenants": [{"name": "alice", "key": "alice-key-1"}]
	}`)
	s, _ := newTestServer(t, Config{TenantsFile: path})

	if rr := doKeyed(t, s.handler, http.MethodGet, "/v1/jobs", "", ""); rr.Code != http.StatusOK {
		t.Errorf("anonymous request: %d, want 200 (back-compat tier)", rr.Code)
	}
	if rr := doKeyed(t, s.handler, http.MethodGet, "/v1/jobs", "alice-key-1", ""); rr.Code != http.StatusOK {
		t.Errorf("keyed request: %d, want 200", rr.Code)
	}
	if rr := doKeyed(t, s.handler, http.MethodGet, "/v1/jobs", "wrong-key", ""); rr.Code != http.StatusUnauthorized {
		t.Errorf("wrong key: %d, want 401", rr.Code)
	}
	// X-Coldtall-Key works as an alternative to the bearer form.
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	req.Header.Set("X-Coldtall-Key", "alice-key-1")
	rr := httptest.NewRecorder()
	s.handler.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Errorf("X-Coldtall-Key request: %d, want 200", rr.Code)
	}
}

// TestTenantRateLimit429 exhausts a one-request burst and asserts the
// 429 carries a Retry-After reflecting the bucket's refill time, while
// cache hits keep flowing uncharged.
func TestTenantRateLimit429(t *testing.T) {
	path := writeTenantsFile(t, `{
		"tenants": [{"name": "alice", "key": "alice-key-1", "rate_per_sec": 0.001, "burst": 1}]
	}`)
	s, _ := newTestServer(t, Config{TenantsFile: path})

	if rr := doKeyed(t, s.handler, http.MethodPost, "/v1/characterize", "alice-key-1", `{"cell":"SRAM"}`); rr.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", rr.Code, rr.Body)
	}
	rr := doKeyed(t, s.handler, http.MethodPost, "/v1/characterize", "alice-key-1", `{"cell":"SRAM","dies":4}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("rate-limited request: %d, want 429", rr.Code)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	// The warmed entry is a cache hit: never rate-limited.
	if rr := doKeyed(t, s.handler, http.MethodPost, "/v1/characterize", "alice-key-1", `{"cell":"SRAM"}`); rr.Code != http.StatusOK {
		t.Errorf("cache hit rate-limited: %d", rr.Code)
	}
	// Other tenants are unaffected.
	if rr := doKeyed(t, s.handler, http.MethodPost, "/v1/characterize", "", `{"cell":"SRAM","dies":4}`); rr.Code != http.StatusOK {
		t.Errorf("anonymous caught in alice's rate limit: %d", rr.Code)
	}
	metrics := get(t, s.handler, "/metrics").Body.String()
	if !strings.Contains(metrics, `coldtall_tenant_shed_total{tenant="alice"} 1`) {
		t.Errorf("metrics missing per-tenant shed count:\n%s", metrics)
	}
}

// TestBudgetExhausted429 spends a one-evaluation budget and asserts the
// next compute answers 429 with the budget headers.
func TestBudgetExhausted429(t *testing.T) {
	path := writeTenantsFile(t, `{
		"tenants": [{"name": "bob", "key": "bob-key-1", "budget": 1, "budget_window": "1h"}]
	}`)
	s, _ := newTestServer(t, Config{TenantsFile: path})

	if rr := doKeyed(t, s.handler, http.MethodPost, "/v1/characterize", "bob-key-1", `{"cell":"SRAM"}`); rr.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", rr.Code, rr.Body)
	}
	rr := doKeyed(t, s.handler, http.MethodPost, "/v1/characterize", "bob-key-1", `{"cell":"PCM"}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: %d %s, want 429", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Budget-Limit"); got != "1" {
		t.Errorf("X-Budget-Limit = %q, want 1", got)
	}
	if got := rr.Header().Get("X-Budget-Remaining"); got != "0" {
		t.Errorf("X-Budget-Remaining = %q, want 0", got)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("budget 429 without Retry-After")
	}
	// The spent entry stays a free cache hit.
	if rr := doKeyed(t, s.handler, http.MethodPost, "/v1/characterize", "bob-key-1", `{"cell":"SRAM"}`); rr.Code != http.StatusOK {
		t.Errorf("cache hit charged against exhausted budget: %d", rr.Code)
	}
	metrics := get(t, s.handler, "/metrics").Body.String()
	if !strings.Contains(metrics, `coldtall_tenant_evals_spent_total{tenant="bob"} 1`) {
		t.Errorf("metrics missing per-tenant evals count:\n%s", metrics)
	}
}

// TestJobQuota429 caps a tenant at one live job and asserts the second
// distinct submission is refused while the first still runs — and that
// resubmitting the first is idempotent (202, no new charge) rather than
// a quota violation.
func TestJobQuota429(t *testing.T) {
	path := writeTenantsFile(t, `{
		"tenants": [{"name": "carol", "key": "carol-key-1", "max_jobs": 1, "budget": 100, "budget_window": "1h"}]
	}`)
	s, study := newTestServer(t, Config{TenantsFile: path})
	// Hold the first job live: each characterization it needs blocks in
	// the tier until the test is over, so however fast the sweep would
	// run, it cannot finish before the second submission.
	hold := heldTier{release: make(chan struct{})}
	study.Explorer().SetPersistence(hold)

	first := `{"kind":"sweep","points":[{"cell":"SRAM"},{"cell":"3T-eDRAM"},{"cell":"PCM"},{"cell":"STT-RAM"}],"benchmarks":["namd","mcf"]}`
	rr := doKeyed(t, s.handler, http.MethodPost, "/v1/jobs", "carol-key-1", first)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("first job: %d %s", rr.Code, rr.Body)
	}
	var st job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(hold.release)
		waitJobDone(t, s, st.ID)
	})
	spentAfterFirst := budgetRemaining(t, rr)

	rr = doKeyed(t, s.handler, http.MethodPost, "/v1/jobs", "carol-key-1", `{"kind":"characterize","points":[{"cell":"PCM"}]}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("second distinct job: %d %s, want 429 (quota)", rr.Code, rr.Body)
	}

	// Idempotent resubmission is not a quota violation and refunds its
	// tentative budget charge.
	rr = doKeyed(t, s.handler, http.MethodPost, "/v1/jobs", "carol-key-1", first)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("duplicate resubmit: %d %s, want 202", rr.Code, rr.Body)
	}
	if again := budgetRemaining(t, rr); again != spentAfterFirst {
		t.Errorf("duplicate resubmit moved the budget: remaining %d -> %d", spentAfterFirst, again)
	}
}

// heldTier is a characterization tier whose reads block until release is
// closed and then miss, so a job that needs a characterization stays live
// until the test lets it go.
type heldTier struct{ release chan struct{} }

func (h heldTier) Load(string) (array.Result, bool) {
	<-h.release
	return array.Result{}, false
}

func (heldTier) Store(string, array.Result) {}

func budgetRemaining(t *testing.T, rr *httptest.ResponseRecorder) int64 {
	t.Helper()
	var n int64
	if _, err := fmt.Sscan(rr.Header().Get("X-Budget-Remaining"), &n); err != nil {
		t.Fatalf("parsing X-Budget-Remaining %q: %v", rr.Header().Get("X-Budget-Remaining"), err)
	}
	return n
}

// TestJobListFilterAndPagination drives ?state=, ?limit= and the cursor
// through HTTP.
func TestJobListFilterAndPagination(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cells := []string{"SRAM", "3T-eDRAM", "PCM"}
	ids := make([]string, 0, len(cells))
	for _, cell := range cells {
		rr := post(t, s.handler, "/v1/jobs", `{"kind":"characterize","points":[{"cell":"`+cell+`"}]}`)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", cell, rr.Code, rr.Body)
		}
		var st job.Status
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJobDone(t, s, id)
	}

	page1 := listJobs(t, s, "/v1/jobs?limit=2")
	if len(page1.Jobs) != 2 || page1.NextCursor == "" {
		t.Fatalf("page 1 = %d jobs, cursor %q; want 2 jobs and a cursor", len(page1.Jobs), page1.NextCursor)
	}
	page2 := listJobs(t, s, "/v1/jobs?limit=2&cursor="+page1.NextCursor)
	if len(page2.Jobs) != 1 || page2.NextCursor != "" {
		t.Fatalf("page 2 = %d jobs, cursor %q; want 1 job and no cursor", len(page2.Jobs), page2.NextCursor)
	}
	if page2.Jobs[0].ID <= page1.Jobs[1].ID {
		t.Error("pages overlap or are unordered")
	}

	done := listJobs(t, s, "/v1/jobs?state=done")
	if len(done.Jobs) != 3 {
		t.Errorf("state=done listed %d jobs, want 3", len(done.Jobs))
	}
	empty := listJobs(t, s, "/v1/jobs?state=failed")
	if len(empty.Jobs) != 0 {
		t.Errorf("state=failed listed %d jobs, want 0", len(empty.Jobs))
	}
	if rr := get(t, s.handler, "/v1/jobs?state=bogus"); rr.Code != http.StatusBadRequest {
		t.Errorf("state=bogus: %d, want 400", rr.Code)
	}
	if rr := get(t, s.handler, "/v1/jobs?limit=zero"); rr.Code != http.StatusBadRequest {
		t.Errorf("limit=zero: %d, want 400", rr.Code)
	}
}

func listJobs(t *testing.T, s *Server, path string) jobListResponse {
	t.Helper()
	rr := get(t, s.handler, path)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body)
	}
	var resp jobListResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitJobDone long-polls the status route until the job is terminal.
func waitJobDone(t *testing.T, s *Server, id string) job.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rr := get(t, s.handler, "/v1/jobs/"+id+"?wait=5s")
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: %d %s", id, rr.Code, rr.Body)
		}
		var st job.Status
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State != job.StateDone {
				t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
			}
			return st
		}
	}
	t.Fatalf("job %s did not finish in time", id)
	return job.Status{}
}

// TestTenantReload swaps the config file underneath the registry and
// asserts old keys die, new keys work, and a broken file keeps the
// previous tenant set.
func TestTenantReload(t *testing.T) {
	path := writeTenantsFile(t, `{
		"tenants": [{"name": "alice", "key": "old-key"}]
	}`)
	s, _ := newTestServer(t, Config{TenantsFile: path})

	if rr := doKeyed(t, s.handler, http.MethodGet, "/v1/jobs", "old-key", ""); rr.Code != http.StatusOK {
		t.Fatalf("old key before reload: %d", rr.Code)
	}
	if err := os.WriteFile(path, []byte(`{"tenants": [{"name": "alice", "key": "new-key"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadTenants(); err != nil {
		t.Fatal(err)
	}
	if rr := doKeyed(t, s.handler, http.MethodGet, "/v1/jobs", "old-key", ""); rr.Code != http.StatusUnauthorized {
		t.Errorf("rotated-out key: %d, want 401", rr.Code)
	}
	if rr := doKeyed(t, s.handler, http.MethodGet, "/v1/jobs", "new-key", ""); rr.Code != http.StatusOK {
		t.Errorf("rotated-in key: %d, want 200", rr.Code)
	}
	// A broken file fails the reload and keeps serving the last good set.
	if err := os.WriteFile(path, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadTenants(); err == nil {
		t.Error("reload of a broken file succeeded")
	}
	if rr := doKeyed(t, s.handler, http.MethodGet, "/v1/jobs", "new-key", ""); rr.Code != http.StatusOK {
		t.Errorf("key lost after failed reload: %d, want 200", rr.Code)
	}
}
