package reliability

import (
	"math"
	"testing"
	"testing/quick"

	"coldtall/internal/cell"
)

func TestSECDEDShape(t *testing.T) {
	e := SECDED()
	if e.WordBits() != 72 {
		t.Errorf("SECDED word = %d bits, want 72", e.WordBits())
	}
	if math.Abs(e.Overhead()-0.125) > 1e-12 {
		t.Errorf("SECDED overhead = %g, want 0.125 (the paper's ECC capacity overhead)", e.Overhead())
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWordFailureProbLimits(t *testing.T) {
	e := SECDED()
	if got := e.WordFailureProb(0); got != 0 {
		t.Errorf("p=0 should never fail, got %g", got)
	}
	if got := e.WordFailureProb(1); got != 1 {
		t.Errorf("p=1 should always fail, got %g", got)
	}
	// For small p, SECDED fails ~ C(72,2) p^2.
	p := 1e-6
	want := binom(72, 2) * p * p
	got := e.WordFailureProb(p)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("small-p failure %.3e, want ~%.3e", got, want)
	}
}

func TestECCBeatsNoECC(t *testing.T) {
	p := 1e-5
	with := SECDED().WordFailureProb(p)
	without := ECC{DataBits: 64}.WordFailureProb(p)
	if with >= without {
		t.Errorf("SECDED (%.3e) should beat no ECC (%.3e)", with, without)
	}
	// No-ECC failure at small p is ~ n*p.
	if math.Abs(without-64*p)/(64*p) > 0.01 {
		t.Errorf("no-ECC failure %.3e, want ~%.3e", without, 64*p)
	}
}

func TestBlockFailureProbAggregates(t *testing.T) {
	e := SECDED()
	p := 1e-5
	word := e.WordFailureProb(p)
	block := e.BlockFailureProb(p, 512)
	want := 1 - math.Pow(1-word, 8)
	if math.Abs(block-want)/want > 1e-9 {
		t.Errorf("block failure %.3e, want %.3e", block, want)
	}
	if block <= word {
		t.Error("block (8 words) should fail more often than one word")
	}
}

func TestBinom(t *testing.T) {
	cases := map[[2]int]float64{
		{72, 0}: 1, {72, 1}: 72, {72, 2}: 2556, {5, 5}: 1, {5, 6}: 0, {5, -1}: 0,
	}
	for in, want := range cases {
		if got := binom(in[0], in[1]); got != want {
			t.Errorf("binom(%d,%d) = %g, want %g", in[0], in[1], got, want)
		}
	}
}

func TestRetentionModelTail(t *testing.T) {
	r := RetentionModel{MedianS: 1e-3, Sigma: DefaultRetentionSigma}
	// At the median, half the cells fail.
	if got := r.WeakCellProb(1e-3); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDF at median = %g, want 0.5", got)
	}
	// A 10x refresh margin leaves a tiny weak tail.
	tail := r.WeakCellProb(1e-4)
	if tail <= 0 || tail > 1e-6 {
		t.Errorf("weak tail at 10x margin = %.3e, want tiny but positive", tail)
	}
	// Monotonic in interval.
	if r.WeakCellProb(2e-4) <= tail {
		t.Error("longer interval must have more weak cells")
	}
	// Infinite median (static cell) never fails.
	static := RetentionModel{MedianS: math.Inf(1), Sigma: 0.4}
	if static.WeakCellProb(100) != 0 {
		t.Error("static cells must not have retention failures")
	}
}

func TestWearModel(t *testing.T) {
	w := WearModel{MedianCycles: 1e9, Sigma: DefaultWearSigma}
	if got := w.DeadFraction(1e9); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("dead fraction at median = %g, want 0.5", got)
	}
	if w.DeadFraction(1e7) >= w.DeadFraction(1e8) {
		t.Error("dead fraction must grow with cycles")
	}
	inf := WearModel{MedianCycles: math.Inf(1), Sigma: 0.5}
	if inf.DeadFraction(1e20) != 0 {
		t.Error("infinite endurance never wears")
	}
}

func TestRawWriteBEROrdering(t *testing.T) {
	// STT's stochastic MTJ switching is the worst; CMOS storage is clean.
	if !(RawWriteBER(cell.STTRAM) > RawWriteBER(cell.PCM)) {
		t.Error("STT should have higher write BER than PCM")
	}
	if RawWriteBER(cell.SRAM) >= RawWriteBER(cell.PCM) {
		t.Error("SRAM write BER should be negligible vs eNVMs")
	}
}

func TestAnalyzePCMvsSTT(t *testing.T) {
	pcm, err := cell.Tentpole(cell.PCM, cell.Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	stt, err := cell.Tentpole(cell.STTRAM, cell.Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ECC: SECDED(), WritesPerSec: 2e6, BlockDataBits: 512,
		TotalBits: 1.51e8, RetentionS: math.Inf(1), WriteRetries: 1}
	repPCM, err := Analyze(pcm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repSTT, err := Analyze(stt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's endurance concern: PCM wears out in years, STT lasts
	// effectively forever.
	if repPCM.WearLifetimeYears > 100 || repPCM.WearLifetimeYears < 0.5 {
		t.Errorf("PCM wear lifetime %.1f years, want single-digit-to-decades", repPCM.WearLifetimeYears)
	}
	if repSTT.WearLifetimeYears < 1e6 {
		t.Errorf("STT wear lifetime %.3g years, want effectively unlimited", repSTT.WearLifetimeYears)
	}
	// But STT has the worse soft write-error exposure.
	if repSTT.SoftFIT <= repPCM.SoftFIT {
		t.Error("STT soft FIT should exceed PCM's (stochastic switching)")
	}
	if repPCM.RetentionWeakBitsPerRefresh != 0 {
		t.Error("non-volatile cells must not report retention weak bits")
	}
}

func TestAnalyzeEDRAMRetention(t *testing.T) {
	e := cell.NewEDRAM3T()
	rep, err := Analyze(e, Config{ECC: SECDED(), WritesPerSec: 1e6,
		BlockDataBits: 512, TotalBits: 1.51e8, RetentionS: 0.775e-3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RetentionWeakBitsPerRefresh <= 0 {
		t.Error("dynamic cells should report a weak-bit tail")
	}
	if !math.IsInf(rep.WearLifetimeYears, 1) {
		t.Error("eDRAM must not wear out")
	}
	// With the 10x refresh margin the weak tail stays correctable-scale
	// (a handful of bits in 150M, well within SECDED's per-word reach).
	if rep.RetentionWeakBitsPerRefresh > 100 {
		t.Errorf("weak bits per refresh = %.1f, want small", rep.RetentionWeakBitsPerRefresh)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	c := cell.NewSRAM6T()
	good := Config{ECC: SECDED(), WritesPerSec: 1, BlockDataBits: 512,
		TotalBits: 1e8, RetentionS: math.Inf(1)}
	bad1 := good
	bad1.ECC = ECC{DataBits: -1}
	if _, err := Analyze(c, bad1); err == nil {
		t.Error("bad ECC should fail")
	}
	bad2 := good
	bad2.WritesPerSec = -1
	if _, err := Analyze(c, bad2); err == nil {
		t.Error("negative write rate should fail")
	}
	badCell := c
	badCell.AreaF2 = -1
	if _, err := Analyze(badCell, good); err == nil {
		t.Error("invalid cell should fail")
	}
}

func TestWordFailureProbMonotoneProperty(t *testing.T) {
	e := SECDED()
	f := func(a, b uint16) bool {
		p1 := float64(a) / 65536 / 100
		p2 := float64(b) / 65536 / 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return e.WordFailureProb(p1) <= e.WordFailureProb(p2)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreCorrectionHelpsProperty(t *testing.T) {
	// A code correcting more bits never fails more often.
	f := func(a uint16) bool {
		p := float64(a%1000+1) / 1e6
		weak := ECC{DataBits: 64, CheckBits: 8, CorrectBits: 1}
		strong := ECC{DataBits: 64, CheckBits: 16, CorrectBits: 2}
		// Compare at equal word sizes to isolate correction strength.
		strong.CheckBits = 8
		return strong.WordFailureProb(p) <= weak.WordFailureProb(p)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
