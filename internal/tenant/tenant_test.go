package tenant

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const twoTenants = `{
  "default": {"rate_per_sec": 5, "burst": 10, "weight": 1},
  "tenants": [
    {"name": "alice", "key": "ak_alice", "weight": 4, "budget": 100, "budget_window": "10s"},
    {"name": "bob", "key": "ak_bob", "max_jobs": 2, "budget": 3, "budget_window": "1m"}
  ]
}`

func TestLoadAuthenticateAndDefaults(t *testing.T) {
	clk := newFakeClock()
	reg, err := LoadFile(writeConfig(t, twoTenants), Options{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}

	alice, ok := reg.Authenticate("ak_alice")
	if !ok || alice.Name() != "alice" {
		t.Fatalf("Authenticate(ak_alice) = %v, %v", alice, ok)
	}
	if alice.Weight() != 4 {
		t.Fatalf("alice weight = %v, want 4", alice.Weight())
	}
	if _, ok := reg.Authenticate("ak_wrong"); ok {
		t.Fatal("bad key authenticated")
	}
	if _, ok := reg.Authenticate(""); ok {
		t.Fatal("empty key authenticated")
	}

	// Named tenants inherit unset fields from the default tier.
	bob, _ := reg.Authenticate("ak_bob")
	if ok, _ := bob.AllowRequest(); !ok {
		t.Fatal("bob inherits the default rate tier, first request must pass")
	}
	if bob.MaxJobs() != 2 {
		t.Fatalf("bob MaxJobs = %d, want 2", bob.MaxJobs())
	}

	anon := reg.Anonymous()
	if anon.Name() != AnonymousName {
		t.Fatalf("anonymous name = %q", anon.Name())
	}
	if _, _, limited := anon.BudgetRemaining(); limited {
		t.Fatal("anonymous has no budget configured, must be unlimited")
	}
}

func TestBudgetChargeRefundAndHeaders(t *testing.T) {
	clk := newFakeClock()
	reg, err := LoadFile(writeConfig(t, twoTenants), Options{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	bob, _ := reg.Authenticate("ak_bob")

	if ok, _ := bob.ChargeEvals(2); !ok {
		t.Fatal("charge within budget refused")
	}
	remaining, limit, limited := bob.BudgetRemaining()
	if !limited || limit != 3 || remaining != 1 {
		t.Fatalf("BudgetRemaining = %d/%d limited=%v, want 1/3 true", remaining, limit, limited)
	}
	ok, wait := bob.ChargeEvals(2)
	if ok {
		t.Fatal("over-budget charge granted")
	}
	if wait <= 0 {
		t.Fatal("refusal must report a refill wait")
	}
	if remaining, _, _ := bob.BudgetRemaining(); remaining != 1 {
		t.Fatalf("BudgetRemaining after a refused charge = %d, want 1 (refusal takes nothing)", remaining)
	}

	bob.RefundEvals(2)
	if ok, _ := bob.ChargeEvals(3); !ok {
		t.Fatal("refund did not restore the budget")
	}

	// The budget refills continuously over its window.
	clk.advance(time.Minute)
	if ok, _ := bob.ChargeEvals(3); !ok {
		t.Fatal("budget did not refill over the window")
	}
}

// TestReloadRestartsBudgets: a reload installs the new limits with full
// buckets (what was charged under the old config is forgotten) and swaps
// rotated keys.
func TestReloadRestartsBudgets(t *testing.T) {
	path := writeConfig(t, twoTenants)
	clk := newFakeClock()
	reg, err := LoadFile(path, Options{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := reg.Authenticate("ak_alice")
	alice.ChargeEvals(7)

	// Rotate bob's key and raise alice's budget; alice restarts at the new
	// budget, bob's old key must stop working.
	next := `{
	  "tenants": [
	    {"name": "alice", "key": "ak_alice", "budget": 500, "budget_window": "10s"},
	    {"name": "bob", "key": "ak_bob2"}
	  ]
	}`
	if err := os.WriteFile(path, []byte(next), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}

	alice2, ok := reg.Authenticate("ak_alice")
	if !ok {
		t.Fatal("alice missing after reload")
	}
	if remaining, limit, limited := alice2.BudgetRemaining(); !limited || limit != 500 || remaining != 500 {
		t.Fatalf("alice budget after reload = %d/%d limited=%v, want a full 500/500", remaining, limit, limited)
	}
	if _, ok := reg.Authenticate("ak_bob"); ok {
		t.Fatal("rotated-out key still authenticates")
	}
	if _, ok := reg.Authenticate("ak_bob2"); !ok {
		t.Fatal("rotated-in key rejected")
	}
}

func TestReloadRejectsBadConfig(t *testing.T) {
	path := writeConfig(t, twoTenants)
	reg, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"dup name":      `{"tenants":[{"name":"a","key":"k1"},{"name":"a","key":"k2"}]}`,
		"dup key":       `{"tenants":[{"name":"a","key":"k"},{"name":"b","key":"k"}]}`,
		"empty key":     `{"tenants":[{"name":"a","key":""}]}`,
		"reserved name": `{"tenants":[{"name":"anonymous","key":"k"}]}`,
		"bad window":    `{"tenants":[{"name":"a","key":"k","budget":1,"budget_window":"soon"}]}`,
		"bad json":      `{`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := reg.Reload(); err == nil {
			t.Errorf("%s: Reload accepted invalid config", name)
		}
	}
	// A failed reload must leave the previous tenant set serving.
	if _, ok := reg.Authenticate("ak_alice"); !ok {
		t.Fatal("failed reload dropped the previous tenant set")
	}
}

func TestNewWithoutFileHasAnonymousOnly(t *testing.T) {
	reg := New(Options{DefaultQuota: 50})
	if got := reg.Names(); len(got) != 1 || got[0] != AnonymousName {
		t.Fatalf("Names = %v, want [anonymous]", got)
	}
	anon := reg.Anonymous()
	_, limit, limited := anon.BudgetRemaining()
	if !limited || limit != 50 {
		t.Fatalf("default quota not applied: limit=%d limited=%v", limit, limited)
	}
	if reg.Weight("nobody") != 1 {
		t.Fatal("unknown tenant weight must default to 1")
	}
	if err := reg.Reload(); err != nil {
		t.Fatalf("Reload without a path must be a no-op, got %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	reg := New(Options{})
	anon := reg.Anonymous()
	ctx := NewContext(context.Background(), anon)
	got, ok := FromContext(ctx)
	if !ok || got != anon {
		t.Fatalf("FromContext = %v, %v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context must carry no tenant")
	}
}
