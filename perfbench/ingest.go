package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"coldtall/internal/explorer"
	"coldtall/internal/ingest"
	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/store"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// traceClass is one family of seeded uploads. Each class contributes a
// canonical trace and a near-duplicate: the same generator parameters
// with another generator seed, so its signature sits within the dedup
// threshold while its bytes differ.
type traceClass struct {
	name     string
	accesses int
	build    func(rng *rand.Rand) func(seed int64) (trace.Generator, error)
}

const mib = 1 << 20

// traceClasses: a read-heavy zipf whose hot set fits the 16 MiB modelled
// LLC, a write-heavy stream over at least 16x the LLC, and a pointer chase
// over about 4x the LLC.
var traceClasses = []traceClass{
	{"read_heavy", 1 << 20, func(rng *rand.Rand) func(int64) (trace.Generator, error) {
		size := uint64(6+rng.Intn(5)) * mib
		skew := 1.1 + 0.1*rng.Float64()
		wf := 0.05 + 0.05*rng.Float64()
		return func(seed int64) (trace.Generator, error) {
			return trace.NewZipf(trace.Region{Base: 1 << 30, Size: size}, skew, wf, seed)
		}
	}},
	{"write_heavy", 1 << 19, func(rng *rand.Rand) func(int64) (trace.Generator, error) {
		size := uint64(256<<rng.Intn(2)) * mib
		wf := 0.6 + 0.2*rng.Float64()
		return func(seed int64) (trace.Generator, error) {
			return trace.NewStream(trace.Region{Base: 1 << 30, Size: size}, 1, wf, seed)
		}
	}},
	{"chase", 1 << 19, func(rng *rand.Rand) func(int64) (trace.Generator, error) {
		size := uint64(48+8*rng.Intn(5)) * mib
		wf := 0.1 + 0.1*rng.Float64()
		return func(seed int64) (trace.Generator, error) {
			return trace.NewPointerChase(trace.Region{Base: 1 << 30, Size: size}, wf, seed)
		}
	}},
}

// pooled is one pre-encoded trace with the outcome a serial reference
// replay expects of it.
type pooled struct {
	class    string
	near     bool
	data     []byte
	accesses int
	stats    []byte // JSON of the measurement-window HierarchyStats
	sig      signature.Signature
}

// encodePool generates and encodes every class's canonical and
// near-duplicate trace from the seed.
func encodePool(seed int64) ([]*pooled, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []*pooled
	for _, c := range traceClasses {
		gen := c.build(rng)
		for _, near := range []bool{false, true} {
			g, err := gen(rng.Int63())
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			bw := trace.NewBinaryWriter(&buf)
			for i := 0; i < c.accesses; i++ {
				if err := bw.Write(g.Next()); err != nil {
					return nil, err
				}
			}
			if err := bw.Close(); err != nil {
				return nil, err
			}
			pool = append(pool, &pooled{class: c.name, near: near, data: buf.Bytes(), accesses: c.accesses})
		}
	}
	return pool, nil
}

// reference replays a pooled trace through the serial engine (one shard,
// one worker) with its own signature accumulator, excluding the warmup
// quarter, independently of the ingest package.
func (p *pooled) reference(ctx context.Context) error {
	eng, err := sim.NewSharded(sim.TableIConfig(), 1, 1)
	if err != nil {
		return err
	}
	acc := signature.NewAccumulator()
	eng.SetObserver(acc.Observe)
	warm := p.accesses / 4
	br := trace.NewBinaryReader(bytes.NewReader(p.data))
	var at sim.HierarchyStats
	done := 0
	for {
		block, err := br.ReadBlock()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if done < warm && done+len(block) >= warm {
			cut := warm - done
			if err := eng.Replay(ctx, block[:cut]); err != nil {
				return err
			}
			at = eng.Snapshot()
			block = block[cut:]
			done += cut
		}
		if err := eng.Replay(ctx, block); err != nil {
			return err
		}
		done += len(block)
	}
	if done != p.accesses {
		return fmt.Errorf("%s trace decoded %d accesses, want %d", p.class, done, p.accesses)
	}
	p.stats, err = json.Marshal(eng.Snapshot().Sub(at))
	p.sig = acc.Signature()
	return err
}

// plannedUpload is one upload of a round and what it must produce.
type plannedUpload struct {
	name  string
	src   *pooled
	kind  string  // canonical, exact (byte-identical re-upload), near
	canon string  // the class's canonical name in this round
	base  *pooled // the class's canonical trace
}

// planRound orders one round's nine uploads — per class the canonical, an
// exact duplicate and a near-duplicate — in a seeded order in which every
// duplicate follows its canonical.
func planRound(rng *rand.Rand, round int, pool []*pooled) []plannedUpload {
	var pending [][]plannedUpload // per class: canonical first, then dups in seeded order
	for i := 0; i < len(pool); i += 2 {
		canonical, near := pool[i], pool[i+1]
		cname := fmt.Sprintf("r%d-%s", round, strings.ReplaceAll(canonical.class, "_", "-"))
		dups := []plannedUpload{
			{cname + "-exact", canonical, "exact", cname, canonical},
			{cname + "-near", near, "near", cname, canonical},
		}
		rng.Shuffle(len(dups), func(a, b int) { dups[a], dups[b] = dups[b], dups[a] })
		pending = append(pending, append([]plannedUpload{{cname, canonical, "canonical", cname, canonical}}, dups...))
	}
	var order []plannedUpload
	for len(pending) > 0 {
		i := rng.Intn(len(pending))
		order = append(order, pending[i][0])
		if pending[i] = pending[i][1:]; len(pending[i]) == 0 {
			pending = append(pending[:i], pending[i+1:]...)
		}
	}
	return order
}

// ingestRun carries one ingest_replay drive's state.
type ingestRun struct {
	out    *outcome
	canon  map[string]ingest.Result // canonical results of the current round
	digest []string                 // first round's per-upload digests
}

// check compares one upload's Result with the reference replay and the
// planted duplicate structure.
func (s *ingestRun) check(u plannedUpload, res ingest.Result, round int) {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	stats, _ := json.Marshal(res.Stats)
	switch u.kind {
	case "canonical":
		var window sim.HierarchyStats
		if err := json.Unmarshal(u.src.stats, &window); err != nil {
			bad("reference statistics: %v", err)
		}
		want := workload.Extrapolate(u.name, window.LLC().Reads, window.LLC().Writes, window.Accesses,
			ingest.DefaultMemOpsPerKiloInstr, ingest.DefaultIPC)
		if res.Deduped {
			bad("distinct upload deduped as an alias of %s", res.AliasOf)
		}
		if !bytes.Equal(stats, u.src.stats) {
			bad("replay statistics differ from the serial reference")
		}
		if res.SignatureSHA256 != u.src.sig.SHA256() {
			bad("signature %s, reference %s", res.SignatureSHA256, u.src.sig.SHA256())
		}
		if res.Source.Traffic != want {
			bad("traffic %+v, reference %+v", res.Source.Traffic, want)
		}
		s.canon[u.name] = res
	case "exact", "near":
		c := s.canon[u.canon]
		if !res.Deduped || res.AliasOf != u.canon {
			bad("planted %s duplicate not deduped onto %s (deduped=%v alias_of=%q distance=%g)",
				u.kind, u.canon, res.Deduped, res.AliasOf, res.DedupDistance)
		}
		if res.Source.Traffic != c.Source.Traffic {
			bad("alias traffic differs from its canonical")
		}
		if u.kind == "exact" && (res.DedupDistance != 0 || res.SignatureSHA256 != c.SignatureSHA256) {
			bad("exact duplicate at distance %g with signature %s", res.DedupDistance, res.SignatureSHA256)
		}
		if u.kind == "near" {
			if d := signature.Distance(u.src.sig, u.base.sig); d != res.DedupDistance {
				bad("dedup distance %g, reference %g", res.DedupDistance, d)
			}
			if !bytes.Equal(stats, u.src.stats) || res.SignatureSHA256 != u.src.sig.SHA256() {
				bad("near-duplicate replay differs from the serial reference")
			}
		}
	}
	if len(problems) > 0 {
		s.out.fail("round %d upload %s (%s %s): %s", round, u.name, u.src.class, u.kind, strings.Join(problems, "; "))
	}
	if round == 0 {
		h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%v|%g|%+v|%s", u.src.class, u.kind, res.Deduped,
			res.DedupDistance, res.Source.Traffic, res.SignatureSHA256)))
		s.digest = append(s.digest, hex.EncodeToString(h[:]))
	}
}

// setUpIngest is ingest_replay's set-up: encode the seeded uploads and
// open a fresh store.
func setUpIngest(seed int64, dir string) ([]*pooled, *store.Store, error) {
	pool, err := encodePool(seed)
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir, store.Options{Version: explorer.ModelVersion})
	if err != nil {
		return nil, nil, err
	}
	return pool, st, nil
}

func runIngest(ctx context.Context, e *env, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var pool []*pooled
	var st *store.Store
	var cal calibrator
	var setups series
	for i := 0; i < setupRounds; i++ {
		at := cal.run()
		c0 := selfCPU()
		p, s, err := setUpIngest(e.seed, filepath.Join(e.tmp, fmt.Sprintf("ingest-store-%d", i)))
		if err != nil {
			return nil, err
		}
		setups.add((selfCPU() - c0).Seconds(), at)
		pool, st = p, s
		// Drop the previous set-up's pool now, so the process's peak RSS
		// does not depend on when the collector would have run.
		runtime.GC()
	}
	for _, p := range pool {
		if err := p.reference(ctx); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	s := &ingestRun{out: out}
	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	var walls []float64
	var uploadCPU series
	var roundSize []int
	var accesses, replayedAccesses float64
	var deduped, planted, skipped int
	start := time.Now()
	deadline := start.Add(budget)
	round := 0
	for ; round == 0 || time.Now().Before(deadline); round++ {
		// Each round ingests into a fresh registry and signature index
		// (the store persists), so its uploads replay on empty caches and
		// dedup only against the round's own canonicals.
		reg, idx := workload.NewRegistry(), signature.NewIndex()
		s.canon = map[string]ingest.Result{}
		op := tr.op()
		rootID := tr.reserve()
		rstart := time.Now()
		plan := planRound(rng, round, pool)
		for _, u := range plan {
			at := cal.run()
			c0, t0 := selfCPU(), time.Now()
			res, err := ingest.Run(ctx, ingest.Spec{Name: u.name, Trace: u.src.data},
				ingest.Options{Workloads: reg, Store: st, Sigs: idx})
			t1 := time.Now()
			uploadCPU.add(ms(selfCPU()-c0), at)
			tr.record("ingest.upload", op, rootID, t0, t1)
			out.attempted++
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				out.fail("round %d upload %s: %v", round, u.name, err)
				continue
			}
			walls = append(walls, ms(t1.Sub(t0)))
			accesses += float64(u.src.accesses)
			tr.count("ingest.uploads", 1)
			tr.count("ingest.replay_s", res.ReplaySeconds)
			tr.count("ingest.upload_s", t1.Sub(t0).Seconds())
			if u.kind != "canonical" {
				planted++
				tr.count("ingest.planted_dups", 1)
			}
			if res.Deduped {
				deduped++
				tr.count("ingest.deduped", 1)
			}
			if res.ReplaySeconds == 0 {
				skipped++ // an exact duplicate: ingest skips the replay
			} else {
				replayedAccesses += float64(u.src.accesses)
			}
			s.check(u, res, round)
		}
		tr.finish(rootID, "ingest.round", op, 0, rstart, time.Now())
		roundSize = append(roundSize, len(plan))
	}
	elapsed := time.Since(start).Seconds()

	// ref_cpu_ms_per_op is the median over rounds of a round's mean
	// reference-speed CPU time per upload: uploads differ in size and
	// kind, and every round holds the same ones.
	refCPU := cal.scaled(&uploadCPU)
	var roundCPU []float64
	first := 0
	for _, n := range roundSize {
		roundCPU = append(roundCPU, sum(refCPU[first:first+n])/float64(n))
		first += n
	}
	refSetup := cal.scaled(&setups)
	out.set("setup_s", median(refSetup), "s")
	out.set("peak_rss_mb", selfPeakRSSMB(), "MB")
	out.set("ref_cpu_ms_per_op", median(roundCPU), "ms")
	out.named["setup_ref_cpu_samples_s"] = refSetup
	out.named["ref_cpu_round_ms_per_upload"] = roundCPU
	out.named["ref_cpu_p50_ms"] = median(refCPU)
	out.named["raw_cpu_ms_per_op"] = sum(uploadCPU.raw) / float64(max(len(uploadCPU.raw), 1))
	cal.record(out)
	out.named["op_p50_ms"] = median(walls)
	out.named["op_tail_ms"] = quantile(walls, tailQuantile)
	out.named["throughput_per_s"] = accesses / elapsed
	sort.Strings(s.digest)
	d := sha256.Sum256([]byte(strings.Join(s.digest, "\n")))
	out.named["ingest_maccesses_per_s"] = accesses / elapsed / 1e6
	out.named["ingest_upload_p50_s"] = median(walls) / 1e3
	out.named["tail_quantile"] = tailQuantile
	out.named["rounds"] = round
	out.named["uploads"] = len(walls)
	out.named["deduped"] = deduped
	out.named["planted_duplicates"] = planted
	out.named["replay_skipped"] = skipped
	n := float64(max(len(walls), 1))
	out.named["dedup_share"] = float64(deduped) / n
	out.named["replay_skip_share"] = float64(skipped) / n
	out.named["replayed_maccesses_per_s"] = replayedAccesses / elapsed / 1e6
	out.named["result_digest"] = hex.EncodeToString(d[:])
	if tr != nil {
		n := tr.counter("ingest.uploads")
		out.set("ingest.dedup_ratio", tr.counter("ingest.deduped")/n, "ratio")
		out.set("ingest.uploads", n, "count")
		out.set("ingest.planted_dups", tr.counter("ingest.planted_dups"), "count")
		out.set("ingest.replay_share", tr.counter("ingest.replay_s")/tr.counter("ingest.upload_s"), "ratio")
		e.probes.pool = pool
	}
	return out, nil
}
