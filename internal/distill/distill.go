// Package distill fits a synthetic generator to an ingested trace: it
// searches the workload.Profile parameter space — hot-set size, LLC
// fraction, read/write mix, zipf skew, far-region pattern — by coordinate
// descent until the traffic a regenerated stream measures matches the
// trace's measured workload.Traffic within a pinned tolerance. An
// accepted fit replaces the stored trace with the compact generator spec
// (hundreds of bytes against megabytes of trace — roughly a 1000x storage
// drop at the ingest access cap), with the fit quality reported and
// persisted alongside. The measured locality signature (internal/
// signature) seeds the search: the read/write mix is read off directly,
// the footprint bounds the working sets, and the rate formula the
// built-in profiles were designed around is inverted for the initial LLC
// fraction. Standard library only.
package distill

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"coldtall/internal/ingest"
	"coldtall/internal/signature"
	"coldtall/internal/store"
	"coldtall/internal/workload"
)

const (
	// Tolerance is the pinned acceptance contract: a fit is accepted —
	// and may replace the stored trace — only when the symmetric relative
	// error of both regenerated LLC rates against the measured traffic is
	// at or below this bound.
	Tolerance = 0.25

	// snapTolerance stops the descent early: a fit this close will not
	// improve meaningfully against replay noise.
	snapTolerance = 0.05

	// evalAccesses is the regeneration replay length per candidate
	// evaluation; maxEvals bounds the search budget.
	evalAccesses = 1 << 16
	maxEvals     = 40

	// evalSeed pins the candidate generators, keeping the whole fit
	// deterministic.
	evalSeed = 1
)

// KeyPrefix namespaces persisted distillation results in the store, keyed
// by workload name ("distill|<name>").
const KeyPrefix = "distill|"

// Spec is the persisted generator spec — the compact replacement for the
// trace bytes. Regenerating it is workload.Profile generation with these
// parameters and the pinned seed.
type Spec struct {
	Workload           string  `json:"workload"`
	HotSetBytes        uint64  `json:"hot_set_bytes"`
	BigSetBytes        uint64  `json:"big_set_bytes"`
	BigPattern         string  `json:"big_pattern"` // "chase" or "stream"
	LLCFrac            float64 `json:"llc_frac"`
	ZipfSkew           float64 `json:"zipf_skew"`
	WriteFrac          float64 `json:"write_frac"`
	MemOpsPerKiloInstr float64 `json:"mem_ops_per_kilo_instr"`
	IPC                float64 `json:"ipc"`
	// EvalAccesses and Seed reproduce the accepted evaluation.
	EvalAccesses int   `json:"eval_accesses"`
	Seed         int64 `json:"seed"`
}

// Profile materializes the spec as a generator profile.
func (s Spec) Profile() workload.Profile {
	big := workload.PatternChase
	if s.BigPattern == "stream" {
		big = workload.PatternStream
	}
	return workload.Profile{
		Name:               s.Workload,
		Suite:              "distilled",
		Description:        "distilled generator spec",
		HotSetBytes:        s.HotSetBytes,
		BigSetBytes:        s.BigSetBytes,
		Big:                big,
		LLCFrac:            s.LLCFrac,
		ZipfSkew:           s.ZipfSkew,
		WriteFrac:          s.WriteFrac,
		MemOpsPerKiloInstr: s.MemOpsPerKiloInstr,
		IPC:                s.IPC,
	}
}

// Result reports one distillation.
type Result struct {
	// Workload names the distilled workload.
	Workload string `json:"workload"`
	// Spec is the fitted generator spec.
	Spec Spec `json:"spec"`
	// Measured is the workload's registered traffic; Regenerated is what
	// the fitted generator measures under the same replay protocol.
	Measured    workload.Traffic `json:"measured"`
	Regenerated workload.Traffic `json:"regenerated"`
	// RelErr is the fit quality: the larger symmetric relative error over
	// the read and write rates, in [0, 1].
	RelErr float64 `json:"rel_err"`
	// Tolerance echoes the pinned acceptance bound the fit was judged at.
	Tolerance float64 `json:"tolerance"`
	// Accepted reports RelErr <= Tolerance.
	Accepted bool `json:"accepted"`
	// Evals counts candidate replays the search spent.
	Evals int `json:"evals"`
	// TraceBytes and SpecBytes quantify the storage drop; StorageRatio is
	// their ratio (0 when the trace size is unknown).
	TraceBytes   int     `json:"trace_bytes"`
	SpecBytes    int     `json:"spec_bytes"`
	StorageRatio float64 `json:"storage_ratio"`
	// TraceDeleted reports that the stored trace bytes were dropped in
	// favor of the spec (only when accepted, persisted, and no other
	// workload references the same trace).
	TraceDeleted bool `json:"trace_deleted"`
}

// symRelErr is the symmetric relative error |a-b| / max(a, b), in [0, 1]
// and zero only when the rates agree (or are both zero).
func symRelErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(a, b)
}

// trafficErr is the fit objective: the larger symmetric relative error
// over the read and write LLC rates.
func trafficErr(measured, regen workload.Traffic) float64 {
	return math.Max(
		symRelErr(measured.ReadsPerSec, regen.ReadsPerSec),
		symRelErr(measured.WritesPerSec, regen.WritesPerSec),
	)
}

// candidate is one point in the searched parameter space.
type candidate struct {
	hot, big uint64
	pattern  workload.BigPattern
	llc      float64
	skew     float64
	wf       float64
}

func (c candidate) spec(name string, memKI, ipc float64) Spec {
	pat := "chase"
	if c.pattern == workload.PatternStream {
		pat = "stream"
	}
	return Spec{
		Workload:           name,
		HotSetBytes:        c.hot,
		BigSetBytes:        c.big,
		BigPattern:         pat,
		LLCFrac:            c.llc,
		ZipfSkew:           c.skew,
		WriteFrac:          c.wf,
		MemOpsPerKiloInstr: memKI,
		IPC:                ipc,
		EvalAccesses:       evalAccesses,
		Seed:               evalSeed,
	}
}

func clampF(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }

func clampU(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// initialCandidate seeds the descent from the signature and the measured
// traffic: the write fraction is read off the stream directly, the
// footprint bounds the far working set, the median reuse interval proxies
// the hot set, and the profile-design rate formula
// rate = Cores * IPC * f * (memKI/1000) * LLCFrac is inverted for the
// initial LLC fraction.
func initialCandidate(sig signature.Signature, measured workload.Traffic, memKI, ipc float64) candidate {
	wf := 0.0
	if sig.Accesses > 0 {
		wf = float64(sig.Writes) / float64(sig.Accesses)
	}
	big := clampU(ceilPow2(sig.FootprintBytes()), 1<<20, 1<<34)
	hot := clampU(ceilPow2(sig.ReuseQuantile(0.5)*64), 4096, 1<<20)
	designed := workload.Cores * ipc * workload.DefaultFrequencyHz * (memKI / 1000)
	llc := clampF((measured.ReadsPerSec+measured.WritesPerSec)/designed, 1e-7, 1)
	return candidate{hot: hot, big: big, pattern: workload.PatternChase, llc: llc, skew: 1.3, wf: clampF(wf, 0, 1)}
}

func ceilPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v && p < 1<<62 {
		p <<= 1
	}
	return p
}

// Fit searches generator parameters matching the measured signature and
// traffic. It is deterministic: pinned seeds, a fixed coordinate order,
// and a bounded evaluation budget.
func Fit(ctx context.Context, name string, sig signature.Signature, measured workload.Traffic, memKI, ipc float64) (Result, error) {
	if err := measured.Validate(); err != nil {
		return Result{}, err
	}

	evals := 0
	type outcome struct {
		err     float64
		traffic workload.Traffic
	}
	cache := make(map[candidate]outcome)
	eval := func(c candidate) (outcome, error) {
		if o, ok := cache[c]; ok {
			return o, nil
		}
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		if evals >= maxEvals {
			return outcome{err: math.Inf(1)}, nil
		}
		evals++
		p := c.spec(name, memKI, ipc).Profile()
		// The candidate traffic is labeled by the profile name; relabel is
		// unnecessary since only the rates enter the objective.
		tr, err := workload.Measure(ctx, p, evalAccesses, evalSeed)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{err: trafficErr(measured, tr), traffic: tr}
		cache[c] = o
		return o, nil
	}

	best := initialCandidate(sig, measured, memKI, ipc)
	bestOut, err := eval(best)
	if err != nil {
		return Result{}, err
	}

	// Coordinate descent with shrinking multiplicative steps: each round
	// cycles the coordinates in a fixed order, greedily keeping any
	// neighbor that lowers the objective.
	llcStep, hotStep, wfStep, skewStep := 2.0, 4.0, 0.1, 0.3
	for round := 0; round < 8 && bestOut.err > snapTolerance && evals < maxEvals; round++ {
		improved := false
		try := func(c candidate) error {
			c.llc = clampF(c.llc, 1e-7, 1)
			c.wf = clampF(c.wf, 0, 1)
			c.skew = clampF(c.skew, 1.05, 3)
			c.hot = clampU(c.hot, 4096, 1<<30)
			c.big = clampU(c.big, 1<<20, 1<<34)
			out, err := eval(c)
			if err != nil {
				return err
			}
			if out.err < bestOut.err {
				best, bestOut = c, out
				improved = true
			}
			return nil
		}
		neighbors := []candidate{}
		up, down := best, best
		up.llc, down.llc = best.llc*llcStep, best.llc/llcStep
		neighbors = append(neighbors, up, down)
		up, down = best, best
		up.hot = best.hot * uint64(hotStep)
		down.hot = best.hot / uint64(hotStep)
		neighbors = append(neighbors, up, down)
		up, down = best, best
		up.wf, down.wf = best.wf+wfStep, best.wf-wfStep
		neighbors = append(neighbors, up, down)
		up, down = best, best
		up.skew, down.skew = best.skew+skewStep, best.skew-skewStep
		neighbors = append(neighbors, up, down)
		flipped := best
		if flipped.pattern == workload.PatternChase {
			flipped.pattern = workload.PatternStream
		} else {
			flipped.pattern = workload.PatternChase
		}
		neighbors = append(neighbors, flipped)
		for _, c := range neighbors {
			if bestOut.err <= snapTolerance || evals >= maxEvals {
				break
			}
			if err := try(c); err != nil {
				return Result{}, err
			}
		}
		if !improved {
			llcStep = 1 + (llcStep-1)/2
			wfStep /= 2
			skewStep /= 2
			if hotStep > 2 {
				hotStep = 2
			}
			if llcStep < 1.05 {
				break
			}
		}
	}

	spec := best.spec(name, memKI, ipc)
	raw, err := json.Marshal(spec)
	if err != nil {
		return Result{}, err
	}
	regen := bestOut.traffic
	regen.Benchmark = name
	return Result{
		Workload:    name,
		Spec:        spec,
		Measured:    measured,
		Regenerated: regen,
		RelErr:      bestOut.err,
		Tolerance:   Tolerance,
		Accepted:    bestOut.err <= Tolerance,
		Evals:       evals,
		SpecBytes:   len(raw),
	}, nil
}

// Run distills a registered custom workload end to end: resolve its
// signature, fit, persist the result under KeyPrefix, and — when the fit
// is accepted and no other workload references the same trace — delete
// the stored trace bytes, leaving only the generator spec.
func Run(ctx context.Context, name string, reg *workload.Registry, st *store.Store, idx *signature.Index) (Result, error) {
	if reg == nil {
		return Result{}, fmt.Errorf("distill: a workload registry is required")
	}
	if idx == nil {
		return Result{}, fmt.Errorf("distill: a signature index is required")
	}
	src, ok := reg.Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("distill: unknown workload %q", name)
	}
	switch src.Kind {
	case workload.SourceStatic:
		return Result{}, fmt.Errorf("distill: %q is a static benchmark with no stored trace", name)
	case workload.SourceAlias:
		return Result{}, fmt.Errorf("distill: %q is an alias; distill its canonical workload %q instead", name, src.AliasOf)
	}
	sig, err := resolveSignature(src, st, idx)
	if err != nil {
		return Result{}, err
	}

	res, err := Fit(ctx, name, sig, src.Traffic, src.MemOpsPerKiloInstr, src.IPC)
	if err != nil {
		return Result{}, err
	}
	if st != nil {
		if raw, ok := st.Get(ingest.TraceKeyPrefix + src.TraceSHA256); ok {
			res.TraceBytes = len(raw)
			if res.SpecBytes > 0 {
				res.StorageRatio = float64(res.TraceBytes) / float64(res.SpecBytes)
			}
		}
	}
	if res.Accepted && st != nil {
		if res.TraceBytes > 0 && !traceShared(reg, name, src.TraceSHA256) {
			if err := st.Delete(ingest.TraceKeyPrefix + src.TraceSHA256); err != nil {
				return Result{}, err
			}
			res.TraceDeleted = true
		}
		rec, err := json.Marshal(res)
		if err != nil {
			return Result{}, err
		}
		if err := st.Put(KeyPrefix+name, rec); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// resolveSignature prefers the live index, falling back to the persisted
// sig| entry.
func resolveSignature(src workload.Source, st *store.Store, idx *signature.Index) (signature.Signature, error) {
	if s, ok := idx.Get(src.Name); ok {
		return s, nil
	}
	if st != nil && src.TraceSHA256 != "" {
		if raw, ok := st.Get(signature.KeyPrefix + src.TraceSHA256); ok {
			return signature.Decode(raw)
		}
	}
	return signature.Signature{}, fmt.Errorf("distill: no signature recorded for %q (re-ingest the workload to compute one)", src.Name)
}

// traceShared reports whether another registered workload content-
// addresses the same trace bytes.
func traceShared(reg *workload.Registry, name, sha string) bool {
	for _, src := range reg.Custom() {
		if src.Name != name && src.TraceSHA256 == sha {
			return true
		}
	}
	return false
}
