package coldtall

import (
	"strings"
	"testing"
)

func TestAllClaimsReproduce(t *testing.T) {
	results := study(t).Verify()
	if len(results) < 20 {
		t.Fatalf("checklist has %d claims, want the full set", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.ID] {
			t.Errorf("duplicate claim id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
			continue
		}
		if !r.Pass {
			t.Errorf("%s (%s): measured %s, expected %s", r.ID, r.Text, r.Measured, r.Expected)
		}
		if r.Measured == "" {
			t.Errorf("%s: empty measurement", r.ID)
		}
	}
}

func TestRenderVerify(t *testing.T) {
	out := study(t).VerifyTable().String()
	if !strings.Contains(out, "claims reproduced") {
		t.Error("missing summary line")
	}
	if strings.Contains(out, "FAIL") || strings.Contains(out, "ERROR") {
		t.Error("checklist reports failures")
	}
}
