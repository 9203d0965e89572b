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

func TestDDR4Validates(t *testing.T) {
	if err := DDR4().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.TRCD = 0 },
		func(c *Config) { c.BusLatency = 0 },
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

func TestRowBufferHitIsFaster(t *testing.T) {
	m := model(t, 300)
	if m.AccessLatency(true) >= m.AccessLatency(false) {
		t.Error("row hit must be faster than a miss")
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
