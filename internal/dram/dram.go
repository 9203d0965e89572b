// Package dram models the main memory behind the LLC: a DDR4-class
// channel/rank/bank organization with temperature-dependent timing, energy,
// refresh and background power — the CryoRAM substrate of the paper's
// background (Lee et al., ISCA'19; Tannu et al.; Wang/Rambus).
//
// The cryogenic effects mirror the published findings the paper cites:
//
//   - Retention stretches by orders of magnitude as leakage collapses
//     (Wang et al., "DRAM retention at cryogenic temperatures"), making
//     77 K DRAM nearly refresh-free (CryoGuard).
//   - Access latency improves with wire resistivity and transistor drive
//     (CryoRAM reports ~1.5-2x), modeled through the same device corner the
//     cache arrays use.
//   - Background (standby) power collapses with leakage.
//
// The LLC study uses this model for the cross-stack AMAT/IPC impact
// analysis (internal/explorer.SystemImpact): an LLC technology that misses
// more, or more slowly, pays here.
package dram

import (
	"fmt"
	"math"

	"coldtall/internal/tech"
)

// Config describes one memory system at its 300 K corner.
type Config struct {
	// Name labels the configuration ("DDR4-2400 x1").
	Name string
	// Channels, RanksPerChannel and BanksPerRank set the parallelism.
	Channels, RanksPerChannel, BanksPerRank int
	// RowBufferBytes is the open-row size per bank.
	RowBufferBytes int
	// TRCD, TRP, TCAS are the core timing parameters in seconds at 300 K
	// (activate-to-column, precharge, column access).
	TRCD, TRP, TCAS float64
	// BusLatency is the fixed command/data transport time per access.
	BusLatency float64
	// EnergyActivate is the row activate+precharge energy in joules;
	// EnergyColumn the per-column (64 B) access energy.
	EnergyActivate, EnergyColumn float64
	// RefreshIntervalS is the JEDEC refresh interval at 300 K (64 ms)
	// and RefreshEnergy the energy of one full refresh pass.
	RefreshIntervalS, RefreshEnergy float64
	// BackgroundPower300 is standby/peripheral power at 300 K in watts.
	BackgroundPower300 float64
	// Vth300 is the access-device threshold used for retention and
	// background-power temperature scaling.
	Vth300 float64
}

// DDR4 returns a single-channel DDR4-2400-class configuration.
func DDR4() Config {
	return Config{
		Name:               "DDR4-2400 x1",
		Channels:           1,
		RanksPerChannel:    2,
		BanksPerRank:       16,
		RowBufferBytes:     8192,
		TRCD:               14.16e-9,
		TRP:                14.16e-9,
		TCAS:               14.16e-9,
		BusLatency:         10e-9,
		EnergyActivate:     15e-9,
		EnergyColumn:       4e-9,
		RefreshIntervalS:   64e-3,
		RefreshEnergy:      60e-6, // one full pass over an 8 GiB rank pair
		BackgroundPower300: 0.4,
		Vth300:             0.45,
	}
}

// Validate reports the first bad parameter.
func (c Config) Validate() error {
	switch {
	case c.Channels < 1 || c.RanksPerChannel < 1 || c.BanksPerRank < 1:
		return fmt.Errorf("dram: %s: parallelism must be positive", c.Name)
	case c.RowBufferBytes < 64:
		return fmt.Errorf("dram: %s: row buffer too small", c.Name)
	case c.TRCD <= 0 || c.TRP <= 0 || c.TCAS <= 0 || c.BusLatency <= 0:
		return fmt.Errorf("dram: %s: timing must be positive", c.Name)
	case c.EnergyActivate <= 0 || c.EnergyColumn <= 0 || c.RefreshEnergy <= 0:
		return fmt.Errorf("dram: %s: energies must be positive", c.Name)
	case c.RefreshIntervalS <= 0 || c.BackgroundPower300 <= 0:
		return fmt.Errorf("dram: %s: refresh/background must be positive", c.Name)
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
	// retentionGain stretches the refresh interval.
	retentionGain float64
	// leakScale scales background power.
	leakScale float64
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
	timing := 0.5*wire + 0.5*device
	// Retention tracks cell leakage; cap the refresh stretch at 1e6
	// (beyond that refresh is simply off).
	ret := 1.0 / math.Max(corner.LeakageScale, 1e-6)
	return Model{
		cfg:           cfg,
		corner:        corner,
		timingScale:   timing,
		retentionGain: ret,
		leakScale:     corner.LeakageScale,
	}, nil
}

// Config returns the underlying configuration.
func (m Model) Config() Config { return m.cfg }

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

// AccessEnergy returns the energy of one 64 B access in joules.
func (m Model) AccessEnergy(rowHit bool) float64 {
	e := m.cfg.EnergyColumn
	if !rowHit {
		e += m.cfg.EnergyActivate
	}
	return e
}

// RefreshInterval returns the effective refresh interval at the operating
// temperature.
func (m Model) RefreshInterval() float64 {
	return m.cfg.RefreshIntervalS * m.retentionGain
}

// RefreshPower returns average refresh power in watts.
func (m Model) RefreshPower() float64 {
	return m.cfg.RefreshEnergy / m.RefreshInterval()
}

// BackgroundPower returns standby power at the operating temperature: a
// leakage-dominated share collapses when cold, the rest (clocking, I/O
// bias) persists.
func (m Model) BackgroundPower() float64 {
	const leakageShare = 0.6
	p := m.cfg.BackgroundPower300
	return p*(1-leakageShare) + p*leakageShare*math.Min(m.leakScale/m.leakScaleAt300(), 10)
}

// leakScaleAt300 normalizes the leakage scale to the 300 K value (1.0 by
// construction of the node model).
func (m Model) leakScaleAt300() float64 { return 1.0 }
