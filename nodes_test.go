package coldtall

import (
	"strings"
	"testing"
)

func TestNodeScalingShape(t *testing.T) {
	rows, err := study(t).NodeScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("node scaling has %d rows, want 9 (3 nodes x 3 bands)", len(rows))
	}
	for _, r := range rows {
		if r.PowerWatts <= 0 || r.CryoBest <= 0 || r.TallBest <= 0 {
			t.Errorf("%s/%s: non-positive powers", r.Node, r.Band)
		}
		// The verdict structure is node-invariant at the extremes:
		// cryogenic wins the low band, an eNVM stack wins the high band.
		switch r.Band {
		case "<5e4":
			if !strings.Contains(r.PowerWinner, "77K") {
				t.Errorf("%s low band winner = %s, want a cryogenic point", r.Node, r.PowerWinner)
			}
			if r.CryoBest >= r.TallBest {
				t.Errorf("%s low band: cryo (%.3g) should beat eNVM (%.3g)", r.Node, r.CryoBest, r.TallBest)
			}
		case ">8e6":
			if !strings.Contains(r.PowerWinner, "PCM") {
				t.Errorf("%s high band winner = %s, want a PCM stack", r.Node, r.PowerWinner)
			}
			if r.TallBest >= r.CryoBest {
				t.Errorf("%s high band: eNVM (%.3g) should beat cryo (%.3g)", r.Node, r.TallBest, r.CryoBest)
			}
		}
	}
}

func TestNodeScalingLabelsCarryNode(t *testing.T) {
	rows, err := study(t).NodeScaling()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Node] = true
		if !strings.Contains(r.PowerWinner, r.Node) {
			t.Errorf("winner label %q should carry node %s", r.PowerWinner, r.Node)
		}
	}
	for _, n := range []string{"16nm-HP", "22nm-HP", "45nm-HP"} {
		if !seen[n] {
			t.Errorf("missing node %s", n)
		}
	}
}

func TestRenderNodeScaling(t *testing.T) {
	tb, err := study(t).NodeScalingTable()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "Node scaling") {
		t.Error("missing title")
	}
}
