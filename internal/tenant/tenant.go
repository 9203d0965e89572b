// Package tenant provides the multi-tenancy primitives for the coldtall
// service: API-key authentication, per-tenant token-bucket rate limits,
// compute budgets denominated in estimated design-point evaluations, and
// concurrent-job quotas. A Registry is loaded from a JSON config file and
// can be hot-reloaded (SIGHUP).
//
// Every request resolves to exactly one *Tenant. Requests without a key
// map to the always-present anonymous tenant, whose limits come from the
// config's default tier (or are unlimited when nothing is configured) —
// that is what keeps a keyless single-tenant deployment byte-identical
// to the pre-tenancy service.
package tenant

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// AnonymousName is the reserved tenant name for keyless requests.
const AnonymousName = "anonymous"

// Limits is the per-tenant policy tier. The zero value of every field
// means "unlimited", so an empty config degrades to the open service.
type Limits struct {
	// RatePerSec and Burst bound the request rate (token bucket).
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      float64 `json:"burst"`
	// MaxJobs caps concurrently live (non-terminal) async jobs.
	MaxJobs int `json:"max_jobs"`
	// Budget is the compute allowance in estimated design-point
	// evaluations, refilling continuously over BudgetWindow.
	Budget int64 `json:"budget"`
	// BudgetWindow is a Go duration string; defaults to "1m".
	BudgetWindow string `json:"budget_window"`
	// Weight is the fair-share weight for admission and job dispatch;
	// defaults to 1.
	Weight float64 `json:"weight"`
}

func (l Limits) budgetWindow() (time.Duration, error) {
	if l.BudgetWindow == "" {
		return time.Minute, nil
	}
	d, err := time.ParseDuration(l.BudgetWindow)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid budget_window %q", l.BudgetWindow)
	}
	return d, nil
}

// Tenant is one authenticated principal plus its runtime accounting
// state. Tenants are shared across requests and safe for concurrent use.
type Tenant struct {
	name    string
	keyHash [sha256.Size]byte // zero for the anonymous tenant
	hasKey  bool
	limits  Limits

	requests *bucket // request-rate bucket, 1 token per request
	budget   *bucket // evaluation-budget bucket
}

// Name reports the tenant's configured name.
func (t *Tenant) Name() string { return t.name }

// Weight reports the fair-share weight (>= 1 after normalisation).
func (t *Tenant) Weight() float64 { return t.limits.Weight }

// MaxJobs reports the concurrent-job quota; 0 means unlimited.
func (t *Tenant) MaxJobs() int { return t.limits.MaxJobs }

// AllowRequest withdraws one request-rate token. On refusal it reports
// how long until the bucket refills enough for one request.
func (t *Tenant) AllowRequest() (ok bool, wait time.Duration) {
	return t.requests.take(1)
}

// ChargeEvals withdraws n estimated design-point evaluations from the
// compute budget. On refusal it reports the refill wait for the missing
// amount.
func (t *Tenant) ChargeEvals(n int) (ok bool, wait time.Duration) {
	if n < 1 {
		n = 1
	}
	return t.budget.take(float64(n))
}

// RefundEvals returns n evaluations to the budget (duplicate-submission
// refunds).
func (t *Tenant) RefundEvals(n int) {
	if n < 1 {
		n = 1
	}
	t.budget.give(float64(n))
}

// BudgetRemaining reports the current budget balance and ceiling.
// limited is false when the tenant has no budget configured.
func (t *Tenant) BudgetRemaining() (remaining, limit int64, limited bool) {
	tokens, capacity := t.budget.level()
	if capacity == 0 {
		return 0, 0, false
	}
	if tokens < 0 {
		tokens = 0
	}
	return int64(tokens), int64(capacity), true
}

// config is the on-disk shape of the -tenants file.
type config struct {
	// Default is the tier applied to the anonymous tenant and used to
	// fill unset fields of named tenants.
	Default Limits `json:"default"`
	Tenants []struct {
		Name string `json:"name"`
		Key  string `json:"key"`
		Limits
	} `json:"tenants"`
}

// Options tunes Registry construction.
type Options struct {
	// Now is the clock used by every bucket; nil means time.Now.
	Now func() time.Time
	// DefaultQuota, when > 0, sets the default tier's Budget if the
	// config leaves it unset (the -default-quota flag).
	DefaultQuota int64
}

// Registry resolves API keys to tenants. It is safe for concurrent use;
// Reload swaps the tenant set atomically.
type Registry struct {
	opts Options
	path string

	mu      sync.RWMutex
	tenants map[string]*Tenant // by name, including anonymous
	byHash  []*Tenant          // keyed tenants, stable auth scan order
}

// New builds a Registry with no config file: only the anonymous tenant
// exists, limited by opts.DefaultQuota (0 = unlimited).
func New(opts Options) *Registry {
	r := &Registry{opts: opts}
	var cfg config
	if err := r.install(cfg); err != nil {
		// An empty config cannot fail validation.
		panic(err)
	}
	return r
}

// LoadFile reads and installs the JSON tenants config at path. The path
// is remembered for Reload.
func LoadFile(path string, opts Options) (*Registry, error) {
	r := &Registry{opts: opts, path: path}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Reload re-reads the config file (no-op without one) and swaps the
// tenant set. Buckets restart at the new limits, so a reload is also the
// operator's tool to reset a throttled tenant.
func (r *Registry) Reload() error {
	if r.path == "" {
		return nil
	}
	raw, err := os.ReadFile(r.path)
	if err != nil {
		return fmt.Errorf("tenants config: %w", err)
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("tenants config %s: %w", r.path, err)
	}
	return r.install(cfg)
}

func (r *Registry) install(cfg config) error {
	def := cfg.Default
	if def.Weight <= 0 {
		def.Weight = 1
	}
	if def.Budget == 0 && r.opts.DefaultQuota > 0 {
		def.Budget = r.opts.DefaultQuota
	}
	if _, err := def.budgetWindow(); err != nil {
		return fmt.Errorf("default tier: %w", err)
	}

	tenants := map[string]*Tenant{}
	var byHash []*Tenant
	seenKeys := map[[sha256.Size]byte]string{}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return fmt.Errorf("tenant with empty name")
		}
		if tc.Name == AnonymousName {
			return fmt.Errorf("tenant name %q is reserved", AnonymousName)
		}
		if _, dup := tenants[tc.Name]; dup {
			return fmt.Errorf("duplicate tenant name %q", tc.Name)
		}
		if tc.Key == "" {
			return fmt.Errorf("tenant %q has no key", tc.Name)
		}
		lim := fillLimits(tc.Limits, def)
		t, err := r.newTenant(tc.Name, lim)
		if err != nil {
			return fmt.Errorf("tenant %q: %w", tc.Name, err)
		}
		t.keyHash = sha256.Sum256([]byte(tc.Key))
		t.hasKey = true
		if prev, dup := seenKeys[t.keyHash]; dup {
			return fmt.Errorf("tenants %q and %q share a key", prev, tc.Name)
		}
		seenKeys[t.keyHash] = tc.Name
		tenants[tc.Name] = t
		byHash = append(byHash, t)
	}
	anon, err := r.newTenant(AnonymousName, def)
	if err != nil {
		return err
	}
	tenants[AnonymousName] = anon
	sort.Slice(byHash, func(i, j int) bool { return byHash[i].name < byHash[j].name })

	r.mu.Lock()
	defer r.mu.Unlock()
	r.tenants = tenants
	r.byHash = byHash
	return nil
}

// fillLimits overlays unset fields of l with the default tier.
func fillLimits(l, def Limits) Limits {
	if l.RatePerSec == 0 {
		l.RatePerSec = def.RatePerSec
	}
	if l.Burst == 0 {
		l.Burst = def.Burst
	}
	if l.MaxJobs == 0 {
		l.MaxJobs = def.MaxJobs
	}
	if l.Budget == 0 {
		l.Budget = def.Budget
	}
	if l.BudgetWindow == "" {
		l.BudgetWindow = def.BudgetWindow
	}
	if l.Weight <= 0 {
		l.Weight = def.Weight
	}
	return l
}

func (r *Registry) newTenant(name string, lim Limits) (*Tenant, error) {
	window, err := lim.budgetWindow()
	if err != nil {
		return nil, err
	}
	if lim.Weight <= 0 {
		lim.Weight = 1
	}
	t := &Tenant{name: name, limits: lim}
	t.requests = newBucket(lim.RatePerSec, lim.Burst, r.opts.Now)
	// The budget refills continuously: Budget evaluations per window,
	// with the full window's allowance available as burst.
	var budgetRate float64
	if lim.Budget > 0 {
		budgetRate = float64(lim.Budget) / window.Seconds()
	}
	t.budget = newBucket(budgetRate, float64(lim.Budget), r.opts.Now)
	return t, nil
}

// Authenticate resolves an API key to its tenant. The scan visits every
// keyed tenant and compares SHA-256 digests with a constant-time
// comparison, so timing does not reveal which (if any) tenant matched.
func (r *Registry) Authenticate(key string) (*Tenant, bool) {
	digest := sha256.Sum256([]byte(key))
	r.mu.RLock()
	defer r.mu.RUnlock()
	var found *Tenant
	for _, t := range r.byHash {
		if subtle.ConstantTimeCompare(digest[:], t.keyHash[:]) == 1 {
			found = t
		}
	}
	return found, found != nil
}

// Anonymous returns the keyless tenant (always present).
func (r *Registry) Anonymous() *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[AnonymousName]
}

// Lookup finds a tenant by name.
func (r *Registry) Lookup(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Names lists all tenant names (anonymous included), sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Weight reports the fair-share weight for a tenant name, defaulting to
// 1 for unknown tenants so scheduler callers never divide by zero.
func (r *Registry) Weight(name string) float64 {
	if t, ok := r.Lookup(name); ok {
		return t.Weight()
	}
	return 1
}
