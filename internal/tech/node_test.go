package tech

import (
	"strings"
	"testing"
)

func TestNode22HPValidates(t *testing.T) {
	if err := Node22HP().Validate(); err != nil {
		t.Fatalf("Node22HP invalid: %v", err)
	}
}

func TestNodeValidateRejectsNonPositive(t *testing.T) {
	cases := []struct {
		mutate func(*Node)
		field  string
	}{
		{func(n *Node) { n.FeatureSize = 0 }, "FeatureSize"},
		{func(n *Node) { n.Vdd = -1 }, "Vdd"},
		{func(n *Node) { n.Vth300 = 0 }, "Vth300"},
		{func(n *Node) { n.GateCapPerMicron = 0 }, "GateCapPerMicron"},
		{func(n *Node) { n.DrainCapPerMicron = 0 }, "DrainCapPerMicron"},
		{func(n *Node) { n.OnCurrentPerMicron = 0 }, "OnCurrentPerMicron"},
		{func(n *Node) { n.OffCurrentPerMicron = 0 }, "OffCurrentPerMicron"},
		{func(n *Node) { n.MinWidth = 0 }, "MinWidth"},
		{func(n *Node) { n.FO4Delay300 = 0 }, "FO4Delay300"},
		{func(n *Node) { n.SenseAmpDelay300 = 0 }, "SenseAmpDelay300"},
		{func(n *Node) { n.SenseAmpEnergy = 0 }, "SenseAmpEnergy"},
		{func(n *Node) { n.SenseAmpLeakage = 0 }, "SenseAmpLeakage"},
	}
	for _, c := range cases {
		n := Node22HP()
		c.mutate(&n)
		err := n.Validate()
		if err == nil {
			t.Errorf("expected error for zero %s", c.field)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("error %q does not name field %s", err, c.field)
		}
	}
}

func TestNodeValidateRejectsThresholdAboveSupply(t *testing.T) {
	n := Node22HP()
	n.Vth300 = n.Vdd + 0.1
	if err := n.Validate(); err == nil {
		t.Error("expected error for Vth >= Vdd")
	}
}

func TestNodeAtRejectsOutOfRangeTemperature(t *testing.T) {
	if _, err := Node22HP().At(3.5); err == nil {
		t.Error("expected error for 3.5 K (below supported range)")
	}
	if _, err := Node22HP().At(500); err == nil {
		t.Error("expected error for 500 K")
	}
}

// mustAt evaluates a node at a temperature known to be in range.
func mustAt(t *testing.T, n Node, temp float64) DeviceCorner {
	t.Helper()
	c, err := n.At(temp)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCornerFasterWhenCold(t *testing.T) {
	n := Node22HP()
	cold := mustAt(t, n, TempCryo77)
	hot := mustAt(t, n, TempHot350)
	if cold.FO4Delay >= hot.FO4Delay {
		t.Errorf("FO4 at 77 K (%.3e) should beat 350 K (%.3e)", cold.FO4Delay, hot.FO4Delay)
	}
	if WireResistivity(cold.Temperature) >= WireResistivity(hot.Temperature) {
		t.Error("wire resistivity at 77 K should be below 350 K")
	}
	if cold.LeakageScale >= hot.LeakageScale {
		t.Error("leakage at 77 K should be below 350 K")
	}
	if ThresholdVoltage(n.Vth300, cold.Temperature) <= ThresholdVoltage(n.Vth300, hot.Temperature) {
		t.Error("threshold at 77 K should exceed 350 K")
	}
}

func TestCornerAt300IsNominal(t *testing.T) {
	c := mustAt(t, Node22HP(), 300)
	if vth := ThresholdVoltage(c.Vth300, c.Temperature); vth != 0.5 {
		t.Errorf("Vth at 300 K = %g, want 0.5", vth)
	}
	if diff := c.FO4Delay/c.Node.FO4Delay300 - 1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("FO4 at 300 K should equal nominal, ratio-1 = %g", diff)
	}
}

func TestNodePresetsValidate(t *testing.T) {
	for _, n := range Nodes() {
		if err := n.Validate(); err != nil {
			t.Errorf("%s invalid: %v", n.Name, err)
		}
	}
	if len(Nodes()) != 3 {
		t.Error("want 3 node presets")
	}
}

func TestNodePresetsOrdering(t *testing.T) {
	n16, n22, n45 := Node16HP(), Node22HP(), Node45HP()
	if !(n16.FeatureSize < n22.FeatureSize && n22.FeatureSize < n45.FeatureSize) {
		t.Error("feature sizes should ascend 16 < 22 < 45")
	}
	if !(n16.FO4Delay300 < n22.FO4Delay300 && n22.FO4Delay300 < n45.FO4Delay300) {
		t.Error("newer nodes should be faster")
	}
	if !(n16.Vdd < n45.Vdd) {
		t.Error("supply should scale down with the node")
	}
}
