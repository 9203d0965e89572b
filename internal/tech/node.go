package tech

import "fmt"

// Node captures the device-level parameters of a CMOS process node at its
// nominal (300 K) corner. Temperature-dependent quantities are derived via
// the At method, which returns a DeviceCorner for a concrete operating
// temperature.
//
// The study fixes a 22 nm high-performance node with Vdd = 0.8 V and
// Vth = 0.5 V following PTM and the ITRS roadmap, matching the CryoMEM input
// deck used by the paper.
type Node struct {
	// Name identifies the node (e.g. "22nm-HP").
	Name string
	// FeatureSize is the lithographic half-pitch F in metres; cell areas
	// are expressed in F^2 units.
	FeatureSize float64
	// Vdd is the nominal supply voltage in volts.
	Vdd float64
	// Vth300 is the nominal threshold voltage at 300 K in volts.
	Vth300 float64
	// GateCapPerMicron is transistor gate capacitance in farads per
	// micron of gate width.
	GateCapPerMicron float64
	// DrainCapPerMicron is drain junction capacitance in farads per
	// micron of width.
	DrainCapPerMicron float64
	// OnCurrentPerMicron is the saturation drive current at 300 K in
	// amperes per micron of width.
	OnCurrentPerMicron float64
	// OffCurrentPerMicron is the 300 K subthreshold leakage in amperes
	// per micron of width.
	OffCurrentPerMicron float64
	// MinWidth is the minimum transistor width in metres.
	MinWidth float64
	// FO4Delay300 is the fanout-of-4 inverter delay at 300 K in seconds,
	// used as the canonical logic-speed unit for decoder chains.
	FO4Delay300 float64
	// SenseAmpDelay300 is the sense-amplifier resolution time at 300 K in
	// seconds for a nominal bitline swing.
	SenseAmpDelay300 float64
	// SenseAmpEnergy is the energy per sense-amplifier fire in joules.
	SenseAmpEnergy float64
	// SenseAmpLeakage is sense-amplifier standby leakage at 300 K in
	// watts per instance.
	SenseAmpLeakage float64
}

// Node22HP returns the 22 nm high-performance node assumed throughout the
// paper (Vdd 0.8 V, Vth 0.5 V, PTM/ITRS-derived parasitics).
func Node22HP() Node {
	return Node{
		Name:                "22nm-HP",
		FeatureSize:         22e-9,
		Vdd:                 0.8,
		Vth300:              0.5,
		GateCapPerMicron:    0.8e-15, // 0.8 fF/um
		DrainCapPerMicron:   0.6e-15,
		OnCurrentPerMicron:  1.2e-3, // 1.2 mA/um
		OffCurrentPerMicron: 100e-9, // 100 nA/um HP device at 300 K
		MinWidth:            44e-9,  // 2F
		FO4Delay300:         14e-12,
		SenseAmpDelay300:    120e-12,
		SenseAmpEnergy:      3.0e-15,
		SenseAmpLeakage:     12e-9,
	}
}

// Node45HP returns a 45 nm high-performance node: slower, with relatively
// longer channels (lower leakage per micron) and a higher supply.
func Node45HP() Node {
	return Node{
		Name:                "45nm-HP",
		FeatureSize:         45e-9,
		Vdd:                 1.0,
		Vth300:              0.45,
		GateCapPerMicron:    1.0e-15,
		DrainCapPerMicron:   0.8e-15,
		OnCurrentPerMicron:  1.0e-3,
		OffCurrentPerMicron: 60e-9,
		MinWidth:            90e-9,
		FO4Delay300:         22e-12,
		SenseAmpDelay300:    180e-12,
		SenseAmpEnergy:      6.0e-15,
		SenseAmpLeakage:     18e-9,
	}
}

// Node16HP returns a 16 nm FinFET-class node: faster gates, better
// electrostatic control (lower Ioff per micron), lower supply.
func Node16HP() Node {
	return Node{
		Name:                "16nm-HP",
		FeatureSize:         16e-9,
		Vdd:                 0.7,
		Vth300:              0.45,
		GateCapPerMicron:    0.7e-15,
		DrainCapPerMicron:   0.5e-15,
		OnCurrentPerMicron:  1.4e-3,
		OffCurrentPerMicron: 60e-9,
		MinWidth:            32e-9,
		FO4Delay300:         10e-12,
		SenseAmpDelay300:    90e-12,
		SenseAmpEnergy:      2.0e-15,
		SenseAmpLeakage:     10e-9,
	}
}

// Nodes returns the supported process presets, newest first.
func Nodes() []Node {
	return []Node{Node16HP(), Node22HP(), Node45HP()}
}

// Validate reports a descriptive error when any parameter is non-physical.
func (n Node) Validate() error {
	check := func(v float64, name string) error {
		if v <= 0 {
			return fmt.Errorf("tech: node %q: %s must be positive, got %g", n.Name, name, v)
		}
		return nil
	}
	for _, c := range []struct {
		v    float64
		name string
	}{
		{n.FeatureSize, "FeatureSize"},
		{n.Vdd, "Vdd"},
		{n.Vth300, "Vth300"},
		{n.GateCapPerMicron, "GateCapPerMicron"},
		{n.DrainCapPerMicron, "DrainCapPerMicron"},
		{n.OnCurrentPerMicron, "OnCurrentPerMicron"},
		{n.OffCurrentPerMicron, "OffCurrentPerMicron"},
		{n.MinWidth, "MinWidth"},
		{n.FO4Delay300, "FO4Delay300"},
		{n.SenseAmpDelay300, "SenseAmpDelay300"},
		{n.SenseAmpEnergy, "SenseAmpEnergy"},
		{n.SenseAmpLeakage, "SenseAmpLeakage"},
	} {
		if err := check(c.v, c.name); err != nil {
			return err
		}
	}
	if n.Vth300 >= n.Vdd {
		return fmt.Errorf("tech: node %q: Vth300 (%g) must be below Vdd (%g)", n.Name, n.Vth300, n.Vdd)
	}
	return nil
}

// DeviceCorner is a Node evaluated at a concrete operating temperature: all
// temperature scaling has been applied, so downstream consumers never touch
// temperature directly.
type DeviceCorner struct {
	Node
	// Temperature is the operating temperature in kelvin.
	Temperature float64
	// Vth is the threshold voltage at Temperature.
	Vth float64
	// FO4Delay is the fanout-of-4 delay at Temperature.
	FO4Delay float64
	// SenseAmpDelay is the sense resolution time at Temperature.
	SenseAmpDelay float64
	// OnCurrentScale is Ion(T)/Ion(300 K).
	OnCurrentScale float64
	// LeakageScale is Ioff(T)/Ioff(300 K) including the tunneling floor.
	LeakageScale float64
	// WireRho is copper interconnect resistivity at Temperature, ohm-m.
	WireRho float64
}

// At evaluates the node at temperature t (kelvin).
func (n Node) At(t float64) (DeviceCorner, error) {
	if err := n.Validate(); err != nil {
		return DeviceCorner{}, err
	}
	if err := ValidateTemperature(t); err != nil {
		return DeviceCorner{}, err
	}
	gd := GateDelayScale(n.Vdd, n.Vth300, t, TempRoom)
	return DeviceCorner{
		Node:           n,
		Temperature:    t,
		Vth:            ThresholdVoltage(n.Vth300, t),
		FO4Delay:       n.FO4Delay300 * gd,
		SenseAmpDelay:  n.SenseAmpDelay300 * gd,
		OnCurrentScale: OnCurrentScale(n.Vdd, n.Vth300, t, TempRoom),
		LeakageScale:   SubthresholdLeakageScale(n.Vth300, t, TempRoom),
		WireRho:        WireResistivity(t),
	}, nil
}
