// Package ingest turns user-supplied workloads — raw memory traces or
// synthetic generator specs — into registered DSE workloads: it
// materializes the canonical .ctrace bytes, content-addresses them in the
// persistent store, replays them through the Table I cache hierarchy
// (accumulating a locality signature as the stream goes by), extrapolates
// continuous-operation LLC traffic with the same formula the static SPEC
// table was calibrated with, and registers the result in the workload
// registry so every traffic-dependent figure can be rendered for the
// custom workload.
//
// Near-duplicate detection: every ingestion is compared against the
// already registered workloads — by canonical trace content address
// first, then by normalized signature distance — and a match registers
// the new name as an alias of the canonical workload instead of a new
// entry, so re-uploads share every downstream cache and checkpoint. An
// exact re-upload skips the replay entirely.
package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/store"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// Sizing and core-model defaults.
const (
	// MinAccesses keeps the warmup quarter plus measurement window
	// meaningful; MaxAccesses bounds replay time and memory.
	MinAccesses = 1000
	MaxAccesses = 8 << 20

	// DefaultMemOpsPerKiloInstr and DefaultIPC model a mid-range SPEC
	// core when an upload does not say otherwise.
	DefaultMemOpsPerKiloInstr = 330
	DefaultIPC                = 1.0
)

// Store key prefixes. Traces are content-addressed (idempotent across
// re-uploads); workload records — including alias records — are addressed
// by name so boot recovery can rebuild the registry with one prefix walk.
// Signatures live under signature.KeyPrefix, content-addressed by the
// trace sha they summarize.
const (
	TraceKeyPrefix    = "trace|"
	WorkloadKeyPrefix = "workload|"
)

// GeneratorSpec describes a synthetic workload: either a named SPEC
// profile or a raw pattern over a working set. The tracegen command fills
// one from its flags, so uploads and generated traces share one builder.
type GeneratorSpec struct {
	// Profile bases the stream on a named SPEC stand-in profile
	// (mutually exclusive with Pattern).
	Profile string `json:"profile,omitempty"`
	// Pattern is stream, chase, zipf, or chain.
	Pattern string `json:"pattern,omitempty"`
	// WorkingSetBytes sizes the pattern's region.
	WorkingSetBytes uint64 `json:"working_set_bytes,omitempty"`
	// WriteFrac is the store fraction in [0,1].
	WriteFrac float64 `json:"write_frac,omitempty"`
	// ZipfSkew (> 1) shapes the zipf pattern.
	ZipfSkew float64 `json:"zipf_skew,omitempty"`
	// Accesses is the stream length to generate.
	Accesses int `json:"accesses"`
	// Seed fixes the PRNG so ingestion is reproducible.
	Seed int64 `json:"seed"`
}

// Build constructs the generator: the profile's when Profile is set,
// otherwise Pattern's over a WorkingSetBytes region at 1 GiB. It does not
// apply Validate's ingestion bounds.
func (g GeneratorSpec) Build() (trace.Generator, error) {
	if g.Profile != "" {
		p, err := workload.ProfileByName(g.Profile)
		if err != nil {
			return nil, err
		}
		return p.Generator(g.Seed)
	}
	region := trace.Region{Base: 1 << 30, Size: g.WorkingSetBytes}
	switch g.Pattern {
	case "stream":
		return trace.NewStream(region, 1, g.WriteFrac, g.Seed)
	case "chase":
		return trace.NewPointerChase(region, g.WriteFrac, g.Seed)
	case "zipf":
		return trace.NewZipf(region, g.ZipfSkew, g.WriteFrac, g.Seed)
	case "chain":
		return trace.NewChain(region, g.WriteFrac, g.Seed)
	}
	return nil, fmt.Errorf("ingest: unknown pattern %q (want stream, chase, zipf, or chain)", g.Pattern)
}

// Validate reports spec errors.
func (g GeneratorSpec) Validate() error {
	if g.Profile != "" && g.Pattern != "" {
		return fmt.Errorf("ingest: generator spec sets both profile and pattern")
	}
	if g.Profile == "" && g.Pattern == "" {
		return fmt.Errorf("ingest: generator spec needs a profile or a pattern")
	}
	if g.Profile == "" {
		if g.WorkingSetBytes == 0 {
			return fmt.Errorf("ingest: pattern mode needs working_set_bytes")
		}
		if g.WriteFrac < 0 || g.WriteFrac > 1 {
			return fmt.Errorf("ingest: write fraction %g out of [0,1]", g.WriteFrac)
		}
	}
	if g.Accesses < MinAccesses || g.Accesses > MaxAccesses {
		return fmt.Errorf("ingest: accesses %d out of [%d,%d]", g.Accesses, MinAccesses, MaxAccesses)
	}
	return nil
}

// Spec is one ingestion request: a workload name plus exactly one of a
// serialized trace (text or .ctrace, autodetected) or a generator spec.
type Spec struct {
	// Name registers the workload (lowercase [a-z0-9._-], max 64).
	Name string `json:"name"`
	// Description is free-form provenance.
	Description string `json:"description,omitempty"`
	// Trace is the serialized trace; JSON carries it base64-encoded.
	Trace []byte `json:"trace,omitempty"`
	// Generator describes a synthetic stream instead of a trace.
	Generator *GeneratorSpec `json:"generator,omitempty"`
	// MemOpsPerKiloInstr and IPC are the core model used to extrapolate
	// access counts into rates; zero selects the defaults (or, for a
	// profile-based generator, the profile's own values).
	MemOpsPerKiloInstr float64 `json:"mem_ops_per_kilo_instr,omitempty"`
	IPC                float64 `json:"ipc,omitempty"`
}

// Validate reports structural errors without materializing the stream.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("ingest: a workload name is required")
	}
	if workload.IsStatic(s.Name) {
		return fmt.Errorf("ingest: %q is a reserved static benchmark name", s.Name)
	}
	if (len(s.Trace) == 0) == (s.Generator == nil) {
		return fmt.Errorf("ingest: exactly one of trace or generator is required")
	}
	if s.Generator != nil {
		if err := s.Generator.Validate(); err != nil {
			return err
		}
	}
	memKI, ipc := s.coreModel()
	if memKI <= 0 || memKI > 1000 {
		return fmt.Errorf("ingest: mem ops per kiloinstruction %g out of (0,1000]", memKI)
	}
	if ipc <= 0 || ipc > 8 {
		return fmt.Errorf("ingest: IPC %g out of (0,8]", ipc)
	}
	return nil
}

// coreModel resolves the extrapolation parameters: explicit values win,
// then a profile-based generator inherits its profile, then defaults.
func (s Spec) coreModel() (memKI, ipc float64) {
	memKI, ipc = s.MemOpsPerKiloInstr, s.IPC
	if s.Generator != nil && s.Generator.Profile != "" {
		if p, err := workload.ProfileByName(s.Generator.Profile); err == nil {
			if memKI == 0 {
				memKI = p.MemOpsPerKiloInstr
			}
			if ipc == 0 {
				ipc = p.IPC
			}
		}
	}
	if memKI == 0 {
		memKI = DefaultMemOpsPerKiloInstr
	}
	if ipc == 0 {
		ipc = DefaultIPC
	}
	return memKI, ipc
}

// Kind reports the provenance class the spec produces.
func (s Spec) Kind() workload.SourceKind {
	if len(s.Trace) > 0 {
		return workload.SourceTrace
	}
	return workload.SourceProfile
}

// Options configures a Run.
type Options struct {
	// Workloads receives the ingested Source (required).
	Workloads *workload.Registry
	// Store, when set, persists the canonical trace bytes (content-
	// addressed), the locality signature, and the workload record (by
	// name) for boot recovery.
	Store *store.Store
	// OnProgress observes replay progress in accesses.
	OnProgress func(done, total uint64)
	// Sigs, when set, is the signature index near-duplicate detection
	// compares against (and that completed ingestions register into).
	Sigs *signature.Index
}

// Result reports one completed ingestion.
type Result struct {
	// Source is the registered workload (an alias record when Deduped).
	Source workload.Source `json:"source"`
	// Stats are the measurement-window hierarchy counters (warmup
	// excluded; zero when an exact duplicate skipped the replay).
	Stats sim.HierarchyStats `json:"stats"`
	// WarmupAccesses is how many leading accesses warmed the caches.
	WarmupAccesses uint64 `json:"warmup_accesses"`
	// TraceBytes is the size of the canonical .ctrace encoding.
	TraceBytes int `json:"trace_bytes"`
	// ReplaySeconds is wall-clock simulation time (0 when the replay was
	// skipped for an exact duplicate).
	ReplaySeconds float64 `json:"replay_seconds"`
	// Deduped reports that the upload matched an existing workload and
	// was registered as an alias of AliasOf at signature distance
	// DedupDistance (0 for an exact byte-identical re-upload).
	Deduped       bool    `json:"deduped,omitempty"`
	AliasOf       string  `json:"alias_of,omitempty"`
	DedupDistance float64 `json:"dedup_distance,omitempty"`
	// SignatureSHA256 content-addresses the locality signature computed
	// during the replay (empty when the replay was skipped).
	SignatureSHA256 string `json:"signature_sha256,omitempty"`
}

// putTrace writes the content-addressed trace|<sha> entry, unless st (if
// any) already vouches for exactly these bytes: exact duplicates and
// re-runs would otherwise rewrite the whole blob. A missing, corrupt
// (quarantined by Get) or other-version entry reads as a miss and is
// written.
func putTrace(st *store.Store, sha string, canonical []byte) error {
	if st == nil {
		return nil
	}
	if prev, ok := st.Get(TraceKeyPrefix + sha); ok && bytes.Equal(prev, canonical) {
		return nil
	}
	return st.Put(TraceKeyPrefix+sha, canonical)
}

// canonicalize returns the spec's canonical .ctrace bytes and exact
// access count. A .ctrace upload that trace.CanonicalBinary proves
// canonical is its own canonical form: it is returned as is, with no
// access decoded, so the replay is the only decode it ever gets. Text
// uploads, binary uploads framed or padded differently, and generator
// specs are streamed through one encoder instead, without materializing
// a []trace.Access: the transient is the encoded bytes (roughly 1.5 B
// per access) rather than a 16 B/access slice.
func canonicalize(s Spec) (canonical []byte, count int, err error) {
	if s.Generator == nil {
		if n, ok := trace.CanonicalBinary(s.Trace); ok {
			return s.Trace, n, checkTraceLength(n)
		}
	}
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	if s.Generator != nil {
		g, err := s.Generator.Build()
		if err != nil {
			return nil, 0, err
		}
		count = s.Generator.Accesses
		for i := 0; i < count; i++ {
			if err := bw.Write(g.Next()); err != nil {
				return nil, 0, err
			}
		}
	} else {
		r := trace.NewReader(bytes.NewReader(s.Trace))
		for {
			a, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, 0, fmt.Errorf("ingest: decoding trace: %w", err)
			}
			if count++; count > MaxAccesses {
				return nil, 0, checkTraceLength(count)
			}
			if err := bw.Write(a); err != nil {
				return nil, 0, err
			}
		}
		if err := checkTraceLength(count); err != nil {
			return nil, 0, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), count, nil
}

// checkTraceLength bounds an uploaded trace's access count.
func checkTraceLength(count int) error {
	if count > MaxAccesses {
		return fmt.Errorf("ingest: trace exceeds the %d-access cap", MaxAccesses)
	}
	if count < MinAccesses {
		return fmt.Errorf("ingest: trace has %d accesses, need at least %d for a meaningful measurement", count, MinAccesses)
	}
	return nil
}

// Run executes one ingestion: canonicalize, content-address, dedup
// against registered workloads, replay through sim's measurement window
// (the one workload.Measure calibrates the static table with) while
// accumulating the locality signature, derive traffic, register, persist.
// It is idempotent — re-running a spec re-derives identical bytes and an
// identical Source (or finds its alias already recorded), which the
// registry accepts silently — so crashed ingest jobs can simply be re-run
// from their stored spec.
func Run(ctx context.Context, spec Spec, opts Options) (Result, error) {
	if opts.Workloads == nil {
		return Result{}, fmt.Errorf("ingest: a workload registry is required")
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	canonical, count, err := canonicalize(spec)
	if err != nil {
		return Result{}, err
	}
	sum := sha256.Sum256(canonical)
	sha := hex.EncodeToString(sum[:])
	memKI, ipc := spec.coreModel()

	// Idempotent re-run of a deduped ingestion: the name is already an
	// alias — return the recorded outcome without replaying anything.
	if prev, ok := opts.Workloads.Lookup(spec.Name); ok && prev.Kind == workload.SourceAlias {
		if prev.TraceSHA256 != sha {
			return Result{}, fmt.Errorf("ingest: %q is already an alias of %q with different trace bytes", spec.Name, prev.AliasOf)
		}
		return aliasResult(prev, len(canonical)), nil
	}

	// A name already registered as a canonical custom workload is a re-run
	// (job retry, boot replay): the original dedup decision stands, so
	// re-derive and re-Add idempotently instead of re-deciding — a later
	// near-match must not flip an established canonical entry to an alias.
	_, reRun := opts.Workloads.Lookup(spec.Name)

	// Exact duplicate: byte-identical canonical trace (and core model) as
	// an already registered workload. Alias it with zero replay work —
	// the invariant the dedup tests call-count assert.
	if !reRun {
		if match, ok := exactDuplicate(opts.Workloads, spec.Name, sha, memKI, ipc); ok {
			// The bytes are the matched workload's, already proven to
			// decode, so they may go in before the alias record.
			if err := putTrace(opts.Store, sha, canonical); err != nil {
				return Result{}, err
			}
			res, err := registerAlias(spec, opts, match, 0, sha, count, len(canonical), memKI, ipc)
			if err != nil {
				return Result{}, err
			}
			if opts.Sigs != nil {
				if s, ok := opts.Sigs.Get(res.AliasOf); ok {
					// Identical bytes mean an identical signature; share
					// the canonical entry's.
					opts.Sigs.Add(spec.Name, s)
					res.SignatureSHA256 = s.SHA256()
				}
			}
			return res, nil
		}
	}

	eng, err := sim.NewReplayer(sim.TableIConfig())
	if err != nil {
		return Result{}, err
	}
	acc := signature.NewAccumulator()
	eng.SetObserver(acc.Observe)

	total := uint64(count)
	warmup := uint64(sim.Warmup(count))
	var progress func(done uint64)
	if opts.OnProgress != nil {
		progress = func(done uint64) { opts.OnProgress(done, total) }
	}
	start := time.Now()
	window, err := eng.Window(ctx, sim.FromCanonical(canonical), count, progress)
	if err != nil {
		var short *sim.ShortSourceError
		switch {
		case errors.As(err, &short):
			return Result{}, fmt.Errorf("ingest: canonical trace ended early at access %d of %d", short.Got, short.Want)
		case errors.Is(err, ctx.Err()):
			return Result{}, err
		}
		return Result{}, fmt.Errorf("ingest: decoding trace: %w", err)
	}
	elapsed := time.Since(start).Seconds()

	// Persist only now that every access has decoded: a malformed upload
	// leaves nothing behind, and nothing reads trace| or sig| before the
	// workload| record that names them exists.
	sig := acc.Signature()
	if err := putTrace(opts.Store, sha, canonical); err != nil {
		return Result{}, err
	}
	if opts.Store != nil {
		if err := opts.Store.Put(signature.KeyPrefix+sha, sig.Encode()); err != nil {
			return Result{}, err
		}
	}

	// Near-duplicate: closest registered signature within the threshold.
	if !reRun && opts.Sigs != nil {
		skip := func(name string) bool {
			if name == spec.Name {
				return true
			}
			// Dedup only against workloads sharing the core model: an
			// alias inherits the canonical entry's traffic, which only
			// matches the upload's own extrapolation when the models agree.
			src, ok := opts.Workloads.Lookup(name)
			return !ok || src.MemOpsPerKiloInstr != memKI || src.IPC != ipc
		}
		if m, ok := opts.Sigs.Nearest(sig, skip); ok && m.Distance <= signature.DefaultThreshold {
			res, err := registerAlias(spec, opts, m.Name, m.Distance, sha, count, len(canonical), memKI, ipc)
			if err != nil {
				return Result{}, err
			}
			opts.Sigs.Add(spec.Name, sig)
			res.Stats = window
			res.WarmupAccesses = warmup
			res.ReplaySeconds = elapsed
			res.SignatureSHA256 = sig.SHA256()
			return res, nil
		}
	}

	src := workload.Source{
		Name:               spec.Name,
		Kind:               spec.Kind(),
		Description:        spec.Description,
		Traffic:            workload.Extrapolate(spec.Name, window.LLC().Reads, window.LLC().Writes, window.Accesses, memKI, ipc),
		Accesses:           total,
		TraceSHA256:        sha,
		MemOpsPerKiloInstr: memKI,
		IPC:                ipc,
	}
	if err := opts.Workloads.Add(src); err != nil {
		return Result{}, err
	}
	if opts.Store != nil {
		rec, err := json.Marshal(src)
		if err != nil {
			return Result{}, err
		}
		if err := opts.Store.Put(WorkloadKeyPrefix+spec.Name, rec); err != nil {
			return Result{}, err
		}
	}
	if opts.Sigs != nil {
		opts.Sigs.Add(spec.Name, sig)
	}
	return Result{
		Source:          src,
		Stats:           window,
		WarmupAccesses:  warmup,
		TraceBytes:      len(canonical),
		ReplaySeconds:   elapsed,
		SignatureSHA256: sig.SHA256(),
	}, nil
}

// exactDuplicate scans the registry (sorted by name, so the pick is
// deterministic) for a workload whose canonical trace bytes and core
// model match the upload.
func exactDuplicate(reg *workload.Registry, name, sha string, memKI, ipc float64) (string, bool) {
	for _, src := range reg.Custom() {
		if src.Name != name && src.TraceSHA256 == sha &&
			src.MemOpsPerKiloInstr == memKI && src.IPC == ipc {
			return src.Name, true
		}
	}
	return "", false
}

// registerAlias records spec.Name as an alias of the canonical workload
// behind matchName (resolving one alias hop, so chains never form) and
// persists the alias record for boot recovery.
func registerAlias(spec Spec, opts Options, matchName string, dist float64, sha string, count, traceBytes int, memKI, ipc float64) (Result, error) {
	canonName := opts.Workloads.Canonical(matchName)
	canonSrc, ok := opts.Workloads.Lookup(canonName)
	if !ok {
		return Result{}, fmt.Errorf("ingest: dedup matched %q but its canonical %q is unknown", matchName, canonName)
	}
	alias := workload.Source{
		Name:               spec.Name,
		Kind:               workload.SourceAlias,
		Description:        spec.Description,
		Traffic:            canonSrc.Traffic,
		Accesses:           uint64(count),
		TraceSHA256:        sha,
		MemOpsPerKiloInstr: memKI,
		IPC:                ipc,
		AliasOf:            canonName,
		DedupDistance:      dist,
	}
	if err := opts.Workloads.Add(alias); err != nil {
		return Result{}, err
	}
	if opts.Store != nil {
		rec, err := json.Marshal(alias)
		if err != nil {
			return Result{}, err
		}
		if err := opts.Store.Put(WorkloadKeyPrefix+spec.Name, rec); err != nil {
			return Result{}, err
		}
	}
	return aliasResult(alias, traceBytes), nil
}

// aliasResult shapes the Result for a deduped ingestion.
func aliasResult(alias workload.Source, traceBytes int) Result {
	return Result{
		Source:        alias,
		TraceBytes:    traceBytes,
		Deduped:       true,
		AliasOf:       alias.AliasOf,
		DedupDistance: alias.DedupDistance,
	}
}

// RecoverSources walks the store's workload records back into the
// registry — the boot path that makes ingested workloads survive a server
// restart. Alias records are applied after every canonical record (the
// walk is name-ordered, so an alias can precede the entry it points at).
// Records that fail to decode or conflict are skipped and counted rather
// than fatal: one bad record must not take down boot.
func RecoverSources(st *store.Store, reg *workload.Registry) (recovered, skipped int, err error) {
	if st == nil {
		return 0, 0, nil
	}
	var aliases []workload.Source
	err = st.Walk(func(key string, val []byte) error {
		if !strings.HasPrefix(key, WorkloadKeyPrefix) {
			return nil
		}
		var src workload.Source
		if json.Unmarshal(val, &src) != nil {
			skipped++
			return nil
		}
		if src.Kind == workload.SourceAlias {
			aliases = append(aliases, src)
			return nil
		}
		if reg.Add(src) != nil {
			skipped++
			return nil
		}
		recovered++
		return nil
	})
	for _, src := range aliases {
		if reg.Add(src) != nil {
			skipped++
			continue
		}
		recovered++
	}
	return recovered, skipped, err
}

// RecoverSignatures rebuilds the in-memory signature index from the
// store's sig| entries for every registered custom workload — the boot
// companion of RecoverSources that restores near-duplicate detection
// across restarts. Missing or undecodable signatures are skipped (a
// workload ingested before signatures existed simply never matches).
func RecoverSignatures(st *store.Store, reg *workload.Registry, idx *signature.Index) (recovered int) {
	if st == nil || idx == nil {
		return 0
	}
	for _, src := range reg.Custom() {
		if src.TraceSHA256 == "" {
			continue
		}
		raw, ok := st.Get(signature.KeyPrefix + src.TraceSHA256)
		if !ok {
			continue
		}
		sig, err := signature.Decode(raw)
		if err != nil {
			continue
		}
		idx.Add(src.Name, sig)
		recovered++
	}
	return recovered
}
