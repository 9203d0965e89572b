// Package reliability models the fault behaviour NVMExplorer takes as an
// application input: raw write-error rates of the stochastic eNVM switching
// processes, retention-tail failures of dynamic cells, endurance wear-out,
// and the SECDED ECC the paper's LLC carries (the 12.5% check-bit overhead
// of an "ECC-supported" cache is exactly a (72,64) Hamming+parity code).
//
// The models are analytical: binomial word-failure combinatorics over a raw
// bit error rate, log-normal tails for per-cell retention and endurance
// spreads, and rate-to-FIT conversions. They answer the questions the
// paper's summary raises — "eNVMs exhibit varying endurance
// characteristics, which may be a limitation particularly for PCM and RRAM
// solutions" — quantitatively.
package reliability

import (
	"fmt"
	"math"

	"coldtall/internal/cell"
)

// ECC describes a per-word error-correcting code.
type ECC struct {
	// DataBits is the protected payload per word.
	DataBits int
	// CheckBits is the redundancy per word.
	CheckBits int
	// CorrectBits is the number of bit errors corrected per word.
	CorrectBits int
}

// SECDED returns the (72,64) single-error-correct double-error-detect code
// implied by the LLC's 12.5% ECC overhead.
func SECDED() ECC {
	return ECC{DataBits: 64, CheckBits: 8, CorrectBits: 1}
}

// WordBits returns the total stored bits per word.
func (e ECC) WordBits() int { return e.DataBits + e.CheckBits }

// Validate reports configuration errors.
func (e ECC) Validate() error {
	if e.DataBits <= 0 || e.CheckBits < 0 || e.CorrectBits < 0 {
		return fmt.Errorf("reliability: invalid ECC %+v", e)
	}
	return nil
}

// WordFailureProb returns the probability that one stored word has more
// errors than the code corrects, given an independent per-bit error
// probability p.
func (e ECC) WordFailureProb(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	n := e.WordBits()
	if p < 1e-4 {
		// Direct tail sum: the complement form cancels catastrophically
		// once the failure probability falls below float64 epsilon. The
		// leading terms beyond the correction limit dominate.
		var fail float64
		for k := e.CorrectBits + 1; k <= e.CorrectBits+4 && k <= n; k++ {
			fail += binom(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		}
		return fail
	}
	// P(fail) = 1 - sum_{k=0..CorrectBits} C(n,k) p^k (1-p)^(n-k).
	ok := 0.0
	for k := 0; k <= e.CorrectBits; k++ {
		ok += binom(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
	}
	if ok > 1 {
		ok = 1
	}
	return 1 - ok
}

// BlockFailureProb returns the probability that at least one word of a
// block fails, for blockDataBits of payload.
func (e ECC) BlockFailureProb(p float64, blockDataBits int) float64 {
	words := float64(blockDataBits) / float64(e.DataBits)
	w := e.WordFailureProb(p)
	if w < 1e-9 {
		// Union bound, exact to first order and immune to the
		// 1-(1-w)^n cancellation.
		return words * w
	}
	return 1 - math.Pow(1-w, words)
}

// binom computes the binomial coefficient for small k.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out *= float64(n-i) / float64(i+1)
	}
	return out
}

// lognormalCDF evaluates P(X <= x) for ln X ~ N(ln(median), sigma^2).
func lognormalCDF(x, median, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - math.Log(median)) / (sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// RetentionModel captures the retention-time spread of a dynamic cell
// population: the median tracks the array model's retention, the log-normal
// sigma captures the weak-bit tail that dominates DRAM-style retention
// failures.
type RetentionModel struct {
	// MedianS is the median cell retention in seconds.
	MedianS float64
	// Sigma is the log-normal spread (typical gain cells: ~0.4).
	Sigma float64
}

// DefaultRetentionSigma is the spread used when none is specified.
const DefaultRetentionSigma = 0.4

// WeakCellProb returns the probability that a cell's retention falls below
// the refresh interval — i.e. the per-bit retention-failure probability per
// refresh period.
func (r RetentionModel) WeakCellProb(refreshIntervalS float64) float64 {
	if math.IsInf(r.MedianS, 1) {
		return 0
	}
	return lognormalCDF(refreshIntervalS, r.MedianS, r.Sigma)
}

// WearModel captures endurance spread across an eNVM population.
type WearModel struct {
	// MedianCycles is the median endurance.
	MedianCycles float64
	// Sigma is the log-normal spread (typical: ~0.5).
	Sigma float64
}

// DefaultWearSigma is the spread used when none is specified.
const DefaultWearSigma = 0.5

// DeadFraction returns the fraction of cells worn out after the given
// number of write cycles.
func (w WearModel) DeadFraction(cycles float64) float64 {
	if math.IsInf(w.MedianCycles, 1) || cycles <= 0 {
		return 0
	}
	return lognormalCDF(cycles, w.MedianCycles, w.Sigma)
}

// RawWriteBER returns the per-bit write error probability of a technology's
// stochastic switching process (soft errors, before wear). Values follow
// the published orders of magnitude: MTJ switching is stochastic (STT worst
// without write-verify), PCM and RRAM fail mainly through resistance-window
// drift and are better per attempt.
func RawWriteBER(t cell.Technology) float64 {
	switch t {
	case cell.STTRAM:
		return 1e-6
	case cell.SOTRAM:
		return 1e-7
	case cell.PCM:
		return 1e-7
	case cell.RRAM:
		return 3e-7
	default:
		return 1e-12 // CMOS storage: SEU-class only
	}
}

// Config parametrizes an Analyze run.
type Config struct {
	// ECC is the applied per-word code.
	ECC ECC
	// WritesPerSec is the block write rate across the whole LLC.
	WritesPerSec float64
	// BlockDataBits is the payload per access; TotalBits the LLC size.
	BlockDataBits, TotalBits float64
	// RetentionS is the cell population's median retention at the
	// operating temperature (+Inf for static and non-volatile cells).
	RetentionS float64
	// RefreshIntervalS is the controller's fixed refresh interval; 0
	// defaults to RetentionS/10 (temperature-adaptive refresh). Fixing
	// it at the hot-corner value shows cooling shrinking the weak-bit
	// tail by orders of magnitude.
	RefreshIntervalS float64
	// WriteRetries is the number of write-verify retry rounds after the
	// first attempt; each round multiplies the residual bit error
	// probability by the raw BER. eNVM controllers verify writes, so the
	// default (via Analyze when negative) is 1.
	WriteRetries int
}

// Report is the reliability summary of one LLC design point under a write
// stream.
type Report struct {
	// Tech is the cell technology.
	Tech cell.Technology
	// ECC is the applied code.
	ECC ECC
	// SoftUncorrectablePerWrite is the probability one block write leaves
	// an uncorrectable word (write-noise only, new device).
	SoftUncorrectablePerWrite float64
	// SoftFIT is soft uncorrectable failures per 1e9 device-hours at the
	// given write rate.
	SoftFIT float64
	// WearLifetimeYears is the time until wear-out makes one block write
	// uncorrectable with 50% probability (ideal wear leveling).
	WearLifetimeYears float64
	// RetentionWeakBitsPerRefresh is the expected weak (failing) bits per
	// refresh pass for dynamic cells (0 for static/non-volatile).
	RetentionWeakBitsPerRefresh float64
}

// Analyze produces the reliability report for a cell under the given
// workload and controller configuration.
func Analyze(c cell.Cell, cfg Config) (Report, error) {
	if err := cfg.ECC.Validate(); err != nil {
		return Report{}, err
	}
	if err := c.Validate(); err != nil {
		return Report{}, err
	}
	if cfg.WritesPerSec < 0 || cfg.BlockDataBits <= 0 || cfg.TotalBits <= 0 {
		return Report{}, fmt.Errorf("reliability: invalid workload parameters")
	}
	retries := cfg.WriteRetries
	if retries < 0 {
		retries = 1
	}
	rep := Report{Tech: c.Tech, ECC: cfg.ECC}

	// Write-verify: each retry round independently re-attempts failing
	// bits, so the residual per-bit error is BER^(retries+1).
	ber := math.Pow(RawWriteBER(c.Tech), float64(retries+1))
	rep.SoftUncorrectablePerWrite = cfg.ECC.BlockFailureProb(ber, int(cfg.BlockDataBits))
	// FIT: uncorrectable events per 1e9 hours.
	rep.SoftFIT = rep.SoftUncorrectablePerWrite * cfg.WritesPerSec * 3600 * 1e9

	if math.IsInf(c.EnduranceCycles, 1) || cfg.WritesPerSec == 0 {
		rep.WearLifetimeYears = math.Inf(1)
	} else {
		wear := WearModel{MedianCycles: c.EnduranceCycles, Sigma: DefaultWearSigma}
		// Ideal wear leveling: every block ages at writesPerSec /
		// (totalBits/blockDataBits) writes per second. A block write is
		// uncorrectable once the expected dead bits per ECC word reach
		// the correction limit; solve for the cycle count where the
		// word failure probability from dead cells hits 50%.
		blocks := cfg.TotalBits / cfg.BlockDataBits
		perBlockRate := cfg.WritesPerSec / blocks
		if perBlockRate <= 0 {
			rep.WearLifetimeYears = math.Inf(1)
		} else {
			cycles := solveWearCycles(wear, cfg.ECC)
			rep.WearLifetimeYears = cycles / perBlockRate / (365.25 * 24 * 3600)
		}
	}

	if !math.IsInf(cfg.RetentionS, 1) && cfg.RetentionS > 0 {
		r := RetentionModel{MedianS: cfg.RetentionS, Sigma: DefaultRetentionSigma}
		interval := cfg.RefreshIntervalS
		if interval <= 0 {
			// Temperature-adaptive refresh at one tenth of the median
			// retention (the margin the array model's refresh power
			// assumes).
			interval = cfg.RetentionS / 10
		}
		rep.RetentionWeakBitsPerRefresh = r.WeakCellProb(interval) * cfg.TotalBits
	}
	return rep, nil
}

// solveWearCycles finds the write-cycle count at which the dead-cell
// fraction makes an ECC word uncorrectable with 50% probability.
func solveWearCycles(w WearModel, ecc ECC) float64 {
	target := 0.5
	lo, hi := w.MedianCycles*1e-6, w.MedianCycles*1e3
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if ecc.WordFailureProb(w.DeadFraction(mid)) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Sqrt(lo * hi)
}
