// Package dram models the main memory behind the LLC: a DDR4-class
// channel's access latency and how it improves when cold — the CryoRAM
// substrate of the paper's background (Lee et al., ISCA'19; Tannu et al.;
// Wang/Rambus). Access latency improves with wire resistivity and
// transistor drive (CryoRAM reports ~1.5-2x), modeled through the same
// device corner the cache arrays use.
//
// The LLC study uses this model for the cross-stack AMAT/IPC impact
// analysis (internal/explorer.SystemImpact): an LLC technology that misses
// more, or more slowly, pays here. The paper prices LLC power only, so
// DRAM energy, refresh and standby power are not modeled.
package dram

import (
	"fmt"

	"coldtall/internal/tech"
)

// Config describes one memory system at its 300 K corner.
type Config struct {
	// Name labels the configuration ("DDR4-2400 x1").
	Name string
	// TRCD, TRP, TCAS are the core timing parameters in seconds at 300 K
	// (activate-to-column, precharge, column access).
	TRCD, TRP, TCAS float64
	// BusLatency is the fixed command/data transport time per access.
	BusLatency float64
	// Vth300 is the access-device threshold the temperature corner is
	// evaluated with.
	Vth300 float64
}

// DDR4 returns a single-channel DDR4-2400-class configuration.
func DDR4() Config {
	return Config{
		Name:       "DDR4-2400 x1",
		TRCD:       14.16e-9,
		TRP:        14.16e-9,
		TCAS:       14.16e-9,
		BusLatency: 10e-9,
		Vth300:     0.45,
	}
}

// Validate reports the first bad parameter.
func (c Config) Validate() error {
	switch {
	case c.TRCD <= 0 || c.TRP <= 0 || c.TCAS <= 0 || c.BusLatency <= 0:
		return fmt.Errorf("dram: %s: timing must be positive", c.Name)
	case c.Vth300 <= 0:
		return fmt.Errorf("dram: %s: threshold must be positive", c.Name)
	}
	return nil
}

// Model is a Config evaluated at an operating temperature.
type Model struct {
	cfg    Config
	corner tech.DeviceCorner
	// timingScale multiplies the 300 K timing parameters (cold DRAM is
	// faster: wires and transistors both improve).
	timingScale float64
}

// New evaluates the configuration at temperature t (kelvin).
func New(cfg Config, t float64) (Model, error) {
	if err := cfg.Validate(); err != nil {
		return Model{}, err
	}
	node := tech.Node22HP()
	node.Vth300 = cfg.Vth300
	corner, err := node.At(t)
	if err != nil {
		return Model{}, err
	}
	// DRAM array timing is roughly half wire-RC, half device-limited;
	// blend the corner's improvements accordingly (CryoRAM-class ~1.5-2x
	// at 77 K).
	wire := tech.WireResistivityRatio(t, tech.TempRoom)
	device := 1.0 / corner.OnCurrentScale
	return Model{
		cfg:         cfg,
		corner:      corner,
		timingScale: 0.5*wire + 0.5*device,
	}, nil
}

// Temperature returns the evaluated operating temperature.
func (m Model) Temperature() float64 { return m.corner.Temperature }

// AccessLatency returns the latency of one 64 B access in seconds: a
// row-buffer hit pays column access and bus time; a miss adds precharge and
// activate.
func (m Model) AccessLatency(rowHit bool) float64 {
	lat := m.cfg.TCAS*m.timingScale + m.cfg.BusLatency
	if !rowHit {
		lat += (m.cfg.TRP + m.cfg.TRCD) * m.timingScale
	}
	return lat
}

// AverageLatency blends hit and miss latencies for a row-buffer hit rate.
func (m Model) AverageLatency(rowHitRate float64) float64 {
	if rowHitRate < 0 {
		rowHitRate = 0
	}
	if rowHitRate > 1 {
		rowHitRate = 1
	}
	return rowHitRate*m.AccessLatency(true) + (1-rowHitRate)*m.AccessLatency(false)
}
