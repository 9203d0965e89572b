package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func region(mb uint64) Region {
	return Region{Base: 1 << 30, Size: mb << 20}
}

func TestRegionBlocks(t *testing.T) {
	r := Region{Base: 0, Size: 128}
	if r.Blocks() != 2 {
		t.Errorf("128 B region = %d blocks, want 2", r.Blocks())
	}
	if (Region{Size: 65}).Blocks() != 2 {
		t.Error("partial block should round up")
	}
	if err := (Region{Size: 32}).Validate(); err == nil {
		t.Error("sub-block region should be rejected")
	}
}

func TestStreamSequentialWrapping(t *testing.T) {
	r := Region{Base: 4096, Size: 4 * BlockBytes}
	g, err := NewStream(r, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{4096, 4160, 4224, 4288, 4096, 4160}
	for i, w := range want {
		if a := g.Next(); a.Addr != w || a.Write {
			t.Errorf("access %d = %+v, want addr %d read", i, a, w)
		}
	}
}

func TestStreamStride(t *testing.T) {
	r := Region{Base: 0, Size: 8 * BlockBytes}
	g, _ := NewStream(r, 2, 0, 1)
	a, b := g.Next(), g.Next()
	if b.Addr-a.Addr != 2*BlockBytes {
		t.Errorf("stride 2 should advance 128 B, got %d", b.Addr-a.Addr)
	}
}

func TestStreamRejectsBadParams(t *testing.T) {
	r := region(1)
	if _, err := NewStream(r, 0, 0, 1); err == nil {
		t.Error("zero stride should fail")
	}
	if _, err := NewStream(r, 1, 1.5, 1); err == nil {
		t.Error("write fraction > 1 should fail")
	}
	if _, err := NewStream(Region{Size: 1}, 1, 0, 1); err == nil {
		t.Error("tiny region should fail")
	}
}

func TestWriteFractionConverges(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		g, _ := NewPointerChase(region(8), frac, 42)
		n, w := 20000, 0
		for i := 0; i < n; i++ {
			if g.Next().Write {
				w++
			}
		}
		got := float64(w) / float64(n)
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("write fraction %.3f, want %.2f", got, frac)
		}
	}
}

func TestZipfSkewConcentratesAccesses(t *testing.T) {
	r := region(64)
	hot, _ := NewZipf(r, 2.5, 0, 7)
	cold, _ := NewZipf(r, 1.05, 0, 7)
	distinct := func(g Generator, n int) int {
		seen := map[uint64]bool{}
		for i := 0; i < n; i++ {
			seen[g.Next().Addr] = true
		}
		return len(seen)
	}
	n := 50000
	if dh, dc := distinct(hot, n), distinct(cold, n); dh >= dc {
		t.Errorf("skewed zipf touched %d blocks, flat touched %d; want fewer when hot", dh, dc)
	}
}

func TestZipfRejectsBadSkew(t *testing.T) {
	if _, err := NewZipf(region(1), 1.0, 0, 1); err == nil {
		t.Error("skew <= 1 should fail")
	}
	if _, err := NewZipf(region(1), 2, -0.1, 1); err == nil {
		t.Error("negative write fraction should fail")
	}
}

func TestGeneratorsStayInRegion(t *testing.T) {
	r := region(2)
	end := r.Base + r.Size
	gens := map[string]Generator{}
	s, _ := NewStream(r, 3, 0.3, 5)
	z, _ := NewZipf(r, 1.5, 0.3, 5)
	p, _ := NewPointerChase(r, 0.3, 5)
	gens["stream"], gens["zipf"], gens["chase"] = s, z, p
	for name, g := range gens {
		for i := 0; i < 10000; i++ {
			a := g.Next()
			if a.Addr < r.Base || a.Addr >= end {
				t.Fatalf("%s escaped region: %#x", name, a.Addr)
			}
			if a.Addr%BlockBytes != 0 {
				t.Fatalf("%s produced unaligned address %#x", name, a.Addr)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	mk := func() Generator {
		z, _ := NewZipf(region(16), 1.4, 0.3, 99)
		return z
	}
	a, b := Collect(mk(), 1000), Collect(mk(), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	z2, _ := NewZipf(region(16), 1.4, 0.3, 100)
	c := Collect(z2, 1000)
	same := 0
	for i := range c {
		if c[i] == a[i] {
			same++
		}
	}
	if same == len(c) {
		t.Error("different seeds produced identical streams")
	}
}

func TestMixtureWeights(t *testing.T) {
	rA := Region{Base: 0, Size: 1 << 20}
	rB := Region{Base: 1 << 40, Size: 1 << 20}
	a, _ := NewStream(rA, 1, 0, 1)
	b, _ := NewStream(rB, 1, 0, 1)
	m, err := NewMixture([]Generator{a, b}, []float64{3, 1}, 11)
	if err != nil {
		t.Fatal(err)
	}
	n, fromA := 40000, 0
	for i := 0; i < n; i++ {
		if m.Next().Addr < 1<<40 {
			fromA++
		}
	}
	got := float64(fromA) / float64(n)
	if math.Abs(got-0.75) > 0.02 {
		t.Errorf("mixture ratio %.3f, want 0.75", got)
	}
}

func TestMixtureRejectsBadConfig(t *testing.T) {
	a, _ := NewStream(region(1), 1, 0, 1)
	if _, err := NewMixture(nil, nil, 1); err == nil {
		t.Error("empty mixture should fail")
	}
	if _, err := NewMixture([]Generator{a}, []float64{1, 2}, 1); err == nil {
		t.Error("mismatched weights should fail")
	}
	if _, err := NewMixture([]Generator{a}, []float64{0}, 1); err == nil {
		t.Error("zero weight should fail")
	}
}

func TestCollectLength(t *testing.T) {
	g, _ := NewStream(region(1), 1, 0, 1)
	if got := len(Collect(g, 123)); got != 123 {
		t.Errorf("Collect returned %d accesses, want 123", got)
	}
}

func TestAccessAlignmentProperty(t *testing.T) {
	f := func(seed int64, sizeMB uint8) bool {
		r := region(uint64(sizeMB%32) + 1)
		p, err := NewPointerChase(r, 0.5, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			if p.Next().Addr%BlockBytes != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChainVisitsEveryBlockOncePerPeriod(t *testing.T) {
	r := Region{Base: 1 << 20, Size: 64 * BlockBytes}
	c, err := NewChain(r, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if c.Period() != 64 {
		t.Fatalf("period = %d, want 64", c.Period())
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < c.Period(); i++ {
		a := c.Next()
		if seen[a.Addr] {
			t.Fatalf("address %#x repeated within one period", a.Addr)
		}
		seen[a.Addr] = true
	}
	if len(seen) != 64 {
		t.Fatalf("visited %d distinct blocks, want 64 (full period)", len(seen))
	}
}

func TestChainRoundsToPowerOfTwo(t *testing.T) {
	r := Region{Base: 0, Size: 100 * BlockBytes} // rounds down to 64
	c, err := NewChain(r, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Period() != 64 {
		t.Errorf("period = %d, want 64", c.Period())
	}
	for i := 0; i < 1000; i++ {
		if a := c.Next(); a.Addr >= r.Base+64*BlockBytes {
			t.Fatalf("chain escaped its power-of-two span: %#x", a.Addr)
		}
	}
}

func TestChainIsDependent(t *testing.T) {
	// The same seed must reproduce the same walk; a different seed a
	// different one.
	mk := func(seed int64) []Access {
		c, _ := NewChain(Region{Base: 0, Size: 1 << 20}, 0.3, seed)
		return Collect(c, 500)
	}
	a, b := mk(5), mk(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("chain not deterministic")
		}
	}
	diff := mk(6)
	same := 0
	for i := range diff {
		if diff[i] == a[i] {
			same++
		}
	}
	if same == len(diff) {
		t.Error("different seeds gave identical chains")
	}
}

func TestChainRejectsBadInput(t *testing.T) {
	if _, err := NewChain(Region{Size: BlockBytes}, 0, 1); err == nil {
		t.Error("single-block chain should fail")
	}
	if _, err := NewChain(Region{Size: 1 << 20}, -0.5, 1); err == nil {
		t.Error("negative write fraction should fail")
	}
}
