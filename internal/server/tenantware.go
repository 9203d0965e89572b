package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"coldtall"
	"coldtall/internal/metrics"
	"coldtall/internal/tenant"
)

// authTenant resolves the request's API key — "Authorization: Bearer
// <key>" or "X-Coldtall-Key: <key>" — to a tenant and threads it through
// the request context. A missing key maps to the anonymous tenant (the
// pre-tenancy behaviour); a wrong key is 401, not anonymous, so a
// misconfigured client cannot silently burn the shared tier.
func (s *Server) authTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("X-Coldtall-Key")
		if key == "" {
			if bearer, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
				key = strings.TrimSpace(bearer)
			}
		}
		t := s.tenants.Anonymous()
		if key != "" {
			var ok bool
			if t, ok = s.tenants.Authenticate(key); !ok {
				http.Error(w, "invalid API key", http.StatusUnauthorized)
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(tenant.NewContext(r.Context(), t)))
	})
}

// tenantFor extracts the authenticated tenant, falling back to anonymous
// for requests that bypass the middleware (direct Handler() tests).
func (s *Server) tenantFor(r *http.Request) *tenant.Tenant {
	if t, ok := tenant.FromContext(r.Context()); ok {
		return t
	}
	return s.tenants.Anonymous()
}

// admissionPool is per-tenant weighted admission over a fixed slot
// count. A tenant may occupy up to capacity x weight/(sum of active
// tenants' weights) slots, recomputed per acquire — so a lone tenant
// gets the whole pool (exactly the old global-channel behaviour) and
// contending tenants split it by weight, with a floor of one slot each.
// There is no queue: a refused acquire is shed by the caller.
type admissionPool struct {
	capacity int
	weight   func(name string) float64

	mu    sync.Mutex
	inUse map[string]int
	total int
}

func newAdmissionPool(capacity int, weight func(string) float64) *admissionPool {
	if weight == nil {
		weight = func(string) float64 { return 1 }
	}
	return &admissionPool{capacity: capacity, weight: weight, inUse: map[string]int{}}
}

// tryAcquire claims one slot for the named tenant, or reports false.
func (a *admissionPool) tryAcquire(name string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.total >= a.capacity {
		return false
	}
	// Weighted share over the tenants holding slots right now, the
	// requester included.
	sum := a.weightOf(name)
	for held := range a.inUse {
		if held != name {
			sum += a.weightOf(held)
		}
	}
	limit := int(float64(a.capacity) * a.weightOf(name) / sum)
	if limit < 1 {
		limit = 1
	}
	if a.inUse[name] >= limit {
		return false
	}
	a.inUse[name]++
	a.total++
	return true
}

func (a *admissionPool) weightOf(name string) float64 {
	if w := a.weight(name); w > 0 {
		return w
	}
	return 1
}

// release returns the named tenant's slot.
func (a *admissionPool) release(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total--
	if a.inUse[name] <= 1 {
		delete(a.inUse, name)
	} else {
		a.inUse[name]--
	}
}

// load reports current occupancy for load-aware Retry-After hints.
func (a *admissionPool) load() (inUse, capacity int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total, a.capacity
}

// retryAfterSeconds derives a load-aware Retry-After hint: the base
// climbs from 1 s (idle) to 8 s (every admission slot busy), and wait —
// the tenant's own token or budget refill time, when the refusal came
// from a bucket — raises the floor to when a retry can actually succeed.
// Clamped to [1, 60]. Different tenants observe different refill waits
// and occupancy moves continuously, so shed clients do not resynchronize
// into a thundering herd the way the old fixed 1–3 s jitter guarded
// against.
func retryAfterSeconds(inUse, capacity int, wait time.Duration) int {
	sec := 1
	if capacity > 0 && inUse > 0 {
		sec = 1 + (7*inUse)/capacity
	}
	if w := int(math.Ceil(wait.Seconds())); w > sec {
		sec = w
	}
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// retryAfter renders the hint for the current pool load.
func (s *Server) retryAfter(wait time.Duration) string {
	inUse, capacity := s.adm.load()
	return strconv.Itoa(retryAfterSeconds(inUse, capacity, wait))
}

// shed refuses a request with 429 on behalf of tenant t: it ticks the
// global and per-tenant shed counters, sets a Retry-After hint for the
// current pool load raised to wait, and writes msg. Budget refusals set
// the budget headers first (setBudgetHeaders).
func (s *Server) shed(w http.ResponseWriter, t *tenant.Tenant, wait time.Duration, msg string) {
	s.met.shed.Inc()
	s.met.tenantShed(t.Name()).Inc()
	w.Header().Set("Retry-After", s.retryAfter(wait))
	http.Error(w, msg, http.StatusTooManyRequests)
}

// setBudgetHeaders exposes the tenant's evaluation budget on every
// budget-limited response, so clients can pace themselves instead of
// discovering the limit through 429s.
func setBudgetHeaders(w http.ResponseWriter, t *tenant.Tenant) {
	remaining, limit, limited := t.BudgetRemaining()
	if !limited {
		return
	}
	w.Header().Set("X-Budget-Limit", strconv.FormatInt(limit, 10))
	w.Header().Set("X-Budget-Remaining", strconv.FormatInt(remaining, 10))
}

// errBudget marks a compute refused because the tenant's evaluation
// budget is exhausted; wait is the refill time for the missing amount.
type errBudget struct{ wait time.Duration }

func (e *errBudget) Error() string { return "server: tenant compute budget exhausted" }

// artifactCost estimates an artifact build in design-point evaluations:
// the points its build characterizes (already-cached characterizations
// make the real work cheaper, never dearer), and at least 1.
func artifactCost(name string) int {
	if n, ok := artifactCosts()[name]; ok {
		return n
	}
	return 1
}

// artifactCosts prices every registry artifact once. ArtifactPoints is a
// pure function of the name, and every artifact request reads its price,
// response-cache hits included, so the grids are not rebuilt per request.
var artifactCosts = sync.OnceValue(func() map[string]int {
	costs := make(map[string]int)
	for _, name := range coldtall.Artifacts().Names() {
		costs[name] = max(len(coldtall.ArtifactPoints(name)), 1)
	}
	return costs
})

// Per-tenant labeled series, lazily created like the per-path request
// counters.

func (m *serverMetrics) tenantAdmitted(name string) *metrics.Counter {
	return m.reg.Counter(fmt.Sprintf("coldtall_tenant_admitted_total{tenant=%q}", name),
		"Compute requests admitted to the pool, by tenant.")
}

func (m *serverMetrics) tenantShed(name string) *metrics.Counter {
	return m.reg.Counter(fmt.Sprintf("coldtall_tenant_shed_total{tenant=%q}", name),
		"Requests shed with 429 (saturation, rate limit, or budget), by tenant.")
}

func (m *serverMetrics) tenantEvals(name string) *metrics.Counter {
	return m.reg.Counter(fmt.Sprintf("coldtall_tenant_evals_spent_total{tenant=%q}", name),
		"Estimated design-point evaluations charged, by tenant.")
}
