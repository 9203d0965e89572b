package dram

import (
	"math"
	"testing"
	"testing/quick"
)

func model(t *testing.T, temp float64) Model {
	t.Helper()
	m, err := New(DDR4(), temp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// power is a module's total draw under an access rate at a 50% row-buffer
// hit rate: standby, refresh and the access energy.
func power(m Model, accessesPerSec float64) float64 {
	return m.BackgroundPower() + m.RefreshPower() + accessesPerSec*(0.5*m.AccessEnergy(true)+0.5*m.AccessEnergy(false))
}

func TestDDR4Validates(t *testing.T) {
	if err := DDR4().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.RowBufferBytes = 32 },
		func(c *Config) { c.TRCD = 0 },
		func(c *Config) { c.EnergyActivate = 0 },
		func(c *Config) { c.RefreshIntervalS = 0 },
		func(c *Config) { c.BackgroundPower300 = 0 },
		func(c *Config) { c.Vth300 = 0 },
	}
	for i, mutate := range mutations {
		cfg := DDR4()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	if _, err := New(DDR4(), 2); err == nil {
		t.Error("2 K should be out of range")
	}
}

func TestRowBufferHitIsFasterAndCheaper(t *testing.T) {
	m := model(t, 300)
	if m.AccessLatency(true) >= m.AccessLatency(false) {
		t.Error("row hit must be faster than a miss")
	}
	if m.AccessEnergy(true) >= m.AccessEnergy(false) {
		t.Error("row hit must be cheaper than a miss")
	}
	// DDR4-class absolute scale: tens of nanoseconds.
	if lat := m.AccessLatency(false); lat < 20e-9 || lat > 100e-9 {
		t.Errorf("row-miss latency %.1f ns, want DDR4-class 20-100 ns", lat*1e9)
	}
}

func TestCryogenicDRAMFollowsCryoRAM(t *testing.T) {
	warm := model(t, 300)
	cold := model(t, 77)
	// CryoRAM-class latency improvement: ~1.5-2x.
	r := warm.AccessLatency(false) / cold.AccessLatency(false)
	if r < 1.2 || r > 3 {
		t.Errorf("77 K latency gain %.2fx, want 1.2-3x (CryoRAM reports ~1.5-2x)", r)
	}
	// Retention "significantly prolonged" (Rambus/Wang): refresh nearly
	// free at 77 K.
	if gain := cold.RefreshInterval() / warm.RefreshInterval(); gain < 1e3 {
		t.Errorf("refresh interval gain %.3g, want >> 1e3", gain)
	}
	if cold.RefreshPower() >= warm.RefreshPower()/1e3 {
		t.Error("77 K refresh power should be negligible")
	}
	// Background power collapses with leakage but keeps the clock/I/O
	// share.
	if cold.BackgroundPower() >= warm.BackgroundPower() {
		t.Error("cold background power should shrink")
	}
	if cold.BackgroundPower() < warm.BackgroundPower()*0.3 {
		t.Error("non-leakage background share should persist when cold")
	}
}

func TestAverageLatencyInterpolates(t *testing.T) {
	m := model(t, 300)
	hit, miss := m.AccessLatency(true), m.AccessLatency(false)
	if got := m.AverageLatency(1); math.Abs(got-hit) > 1e-15 {
		t.Errorf("hit rate 1 should give hit latency")
	}
	if got := m.AverageLatency(0); math.Abs(got-miss) > 1e-15 {
		t.Errorf("hit rate 0 should give miss latency")
	}
	mid := m.AverageLatency(0.5)
	if mid <= hit || mid >= miss {
		t.Error("blended latency must fall between hit and miss")
	}
	// Out-of-range rates clamp.
	if m.AverageLatency(-1) != miss || m.AverageLatency(2) != hit {
		t.Error("hit rate should clamp to [0,1]")
	}
}

// TestPowerComposition pins the power terms the walkthrough prices DRAM
// with: at 300 K standby is the configured background power, refresh is
// one refresh energy per configured interval, and a row miss pays the
// activation on top of the column access.
func TestPowerComposition(t *testing.T) {
	cfg := DDR4()
	m := model(t, 300)
	if got, want := m.BackgroundPower(), cfg.BackgroundPower300; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("300 K background power %.4g, want the configured %.4g", got, want)
	}
	if got, want := m.RefreshPower(), cfg.RefreshEnergy/cfg.RefreshIntervalS; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("300 K refresh power %.4g, want %.4g", got, want)
	}
	if got, want := m.AccessEnergy(false)-m.AccessEnergy(true), cfg.EnergyActivate; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("row-miss surcharge %.4g J, want the activation energy %.4g J", got, want)
	}
}

func TestColdDRAMPowerWinAtModestTraffic(t *testing.T) {
	// The CryoRAM headline: with refresh gone and background collapsed,
	// 77 K DRAM undercuts 300 K DRAM device power at like-for-like
	// traffic.
	warm := model(t, 300)
	cold := model(t, 77)
	for _, rate := range []float64{0, 1e6, 1e8} {
		if power(cold, rate) >= power(warm, rate) {
			t.Errorf("77 K DRAM should use less device power at %g acc/s", rate)
		}
	}
}

func TestLatencyMonotoneInTemperatureProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		t1 := 77 + float64(a)*(310.0/255)
		t2 := 77 + float64(b)*(310.0/255)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		m1, err1 := New(DDR4(), t1)
		m2, err2 := New(DDR4(), t2)
		if err1 != nil || err2 != nil {
			return false
		}
		return m1.AccessLatency(false) <= m2.AccessLatency(false)+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
