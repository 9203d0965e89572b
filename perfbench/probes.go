package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/cache"
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/store"
	"coldtall/internal/tech"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// probeInputs is what the traced drives hand to the layer probes, so each
// probe times its layer on the workload's own data.
type probeInputs struct {
	pool       []*pooled            // ingest_replay's pre-encoded uploads
	hotBodies  map[string][]byte    // serve_mix hot keys and response bodies
	coldPoints []explorer.PointSpec // serve_mix never-seen design points
}

// runProbes times each layer's public functions in-process, recording a
// span around every call (or batch of calls, for sub-microsecond ones).
func runProbes(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	in := e.probes
	if len(in.pool) == 0 || len(in.hotBodies) == 0 || len(in.coldPoints) == 0 {
		return fmt.Errorf("layer probes need the traced serve_mix and ingest_replay drives first")
	}
	for _, p := range []func(context.Context, *env, *tracer, *outcome) error{
		probeWire, probeSearch, probeExplorer, probeCache, probeStore, probeTrace, probeReplay, probeSignature, probeRender,
	} {
		if err := p(ctx, e, tr, out); err != nil {
			return err
		}
	}
	return nil
}

// probeWire times tech.NewWire at every temperature the paper grid and the
// deep-cryogenic sweep use, for every wire layer.
func probeWire(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	temps := append(cryo.EffectiveTemperatures(), cryo.DeepTemperatures()...)
	layers := []tech.WireLayer{tech.WireLocal, tech.WireIntermediate, tech.WireGlobal}
	op := tr.op()
	var n int
	var total time.Duration
	for rep := 0; rep < 10; rep++ {
		for _, t := range temps {
			for _, l := range layers {
				start := time.Now()
				_, err := tech.NewWire(l, t)
				end := time.Now()
				tr.record("tech.new_wire", op, 0, start, end)
				if err != nil {
					return err
				}
				n++
				total += end.Sub(start)
			}
		}
	}
	out.set("tech.new_wire_us", float64(total.Nanoseconds())/float64(n)/1e3, "us")
	return nil
}

// probeSearch runs the pruned organization search on the first half of
// the mix's cold points and reports how much of the feasible candidate
// space the lower bound skipped.
func probeSearch(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	pts := e.probes.coldPoints[:max(len(e.probes.coldPoints)/2, 1)]
	pts = pts[:min(len(pts), 40)]
	op := tr.op()
	for _, ps := range pts {
		p, err := explorer.ParsePoint(ps)
		if err != nil {
			return err
		}
		var st array.SearchStats
		var serr error
		tr.timed("array.optimize", op, 0, func() { _, st, serr = array.OptimizeWithStats(ctx, p.ArrayConfig()) })
		if serr != nil {
			return serr
		}
		tr.count("array.pruned", float64(st.Pruned))
		tr.count("array.characterized", float64(st.Characterized))
	}
	pruned, characterized := tr.counter("array.pruned"), tr.counter("array.characterized")
	out.set("array.prune_rate", pruned/(pruned+characterized), "ratio")
	out.set("array.candidates", pruned+characterized, "count")
	return nil
}

// probeExplorer characterizes the second half of the mix's cold points on
// a fresh explorer, then evaluates each under a static benchmark.
func probeExplorer(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	pts := e.probes.coldPoints[len(e.probes.coldPoints)/2:]
	pts = pts[:min(len(pts), 40)]
	exp := explorer.New()
	traffic := workload.StaticTraffic()
	op := tr.op()
	var points []explorer.DesignPoint
	for _, ps := range pts {
		p, err := explorer.ParsePoint(ps)
		if err != nil {
			return err
		}
		var cerr error
		tr.timed("explorer.characterize", op, 0, func() { _, cerr = exp.CharacterizeContext(ctx, p) })
		if cerr != nil {
			return cerr
		}
		points = append(points, p)
	}
	for i, p := range points {
		var eerr error
		tr.timed("explorer.evaluate", op, 0, func() { _, eerr = exp.EvaluateContext(ctx, p, traffic[i%len(traffic)]) })
		if eerr != nil {
			return eerr
		}
	}
	out.set("explorer.characterize_ms", median(tr.durations("explorer.characterize")), "ms")
	out.set("explorer.evaluate_us", 1e3*median(tr.durations("explorer.evaluate")), "us")
	return nil
}

// probeCache times cache.Cache.Get over the mix's hot keys, in batches.
func probeCache(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	c, err := cache.New[[]byte](1024)
	if err != nil {
		return err
	}
	var keys []string
	for k, v := range e.probes.hotBodies {
		c.Add(k, v)
		keys = append(keys, k)
	}
	const batch = 10000
	op := tr.op()
	var total time.Duration
	var n int
	for b := 0; b < 20; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, ok := c.Get(keys[(b*batch+i)%len(keys)]); !ok {
				return fmt.Errorf("hot key missing from the cache")
			}
		}
		end := time.Now()
		tr.record("cache.get", op, 0, start, end)
		total += end.Sub(start)
		n += batch
	}
	out.set("cache.get_ns", float64(total.Nanoseconds())/float64(n), "ns")
	return nil
}

// probeStore times store.Put with response-sized values (the mix's hot
// bodies) and with trace-sized blobs (the ingest uploads).
func probeStore(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	st, err := store.Open(filepath.Join(e.tmp, "probe-store"), store.Options{Version: explorer.ModelVersion})
	if err != nil {
		return err
	}
	op := tr.op()
	i := 0
	for rep := 0; rep < 10; rep++ {
		for _, v := range e.probes.hotBodies {
			key := fmt.Sprintf("resp|probe-%d", i)
			i++
			var perr error
			tr.timed("store.put_small", op, 0, func() { perr = st.Put(key, v) })
			if perr != nil {
				return perr
			}
		}
	}
	for rep := 0; rep < 3; rep++ {
		for j, p := range e.probes.pool {
			key := fmt.Sprintf("trace|probe-%d", j)
			var perr error
			tr.timed("store.put_blob", op, 0, func() { perr = st.Put(key, p.data) })
			if perr != nil {
				return perr
			}
		}
	}
	out.set("store.put_small_us", 1e3*median(tr.durations("store.put_small")), "us")
	out.set("store.put_blob_ms", median(tr.durations("store.put_blob")), "ms")
	return nil
}

// probeTrace decodes every upload block by block.
func probeTrace(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	op := tr.op()
	var n int
	var total time.Duration
	for rep := 0; rep < 3; rep++ {
		for _, p := range e.probes.pool {
			start := time.Now()
			br := trace.NewBinaryReader(bytes.NewReader(p.data))
			got := 0
			for {
				block, err := br.ReadBlock()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				got += len(block)
			}
			end := time.Now()
			tr.record("trace.decode", op, 0, start, end)
			if got != p.accesses {
				return fmt.Errorf("decoded %d accesses, want %d", got, p.accesses)
			}
			n += got
			total += end.Sub(start)
		}
	}
	out.set("trace.decode_maccesses_per_s", float64(n)/total.Seconds()/1e6, "Macc/s")
	return nil
}

// probeReplay streams each class's uploads through the default-sized
// sharded replayer.
func probeReplay(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	op := tr.op()
	rate := map[string][2]float64{}
	for _, p := range e.probes.pool {
		eng, err := sim.NewSharded(sim.TableIConfig(), 0, 0)
		if err != nil {
			return err
		}
		start := time.Now()
		n, err := eng.ReplayReader(ctx, trace.NewBinaryReader(bytes.NewReader(p.data)), 0, nil)
		end := time.Now()
		tr.record("sim.replay", op, 0, start, end)
		if err != nil {
			return err
		}
		r := rate[p.class]
		rate[p.class] = [2]float64{r[0] + float64(n), r[1] + end.Sub(start).Seconds()}
	}
	for _, c := range []string{"read_heavy", "write_heavy"} {
		out.set("sim.replay_maccesses_per_s."+c, rate[c][0]/rate[c][1]/1e6, "Macc/s")
	}
	return nil
}

// probeSignature folds every upload's decoded accesses into a signature
// and checks it against the reference replay's.
func probeSignature(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	op := tr.op()
	var n int
	var total time.Duration
	for _, p := range e.probes.pool {
		all, err := trace.ReadAll(trace.NewBinaryReader(bytes.NewReader(p.data)))
		if err != nil {
			return err
		}
		acc := signature.NewAccumulator()
		start := time.Now()
		for _, a := range all {
			acc.Observe(a)
		}
		end := time.Now()
		tr.record("signature.fold", op, 0, start, end)
		out.attempted++
		if acc.Signature() != p.sig {
			out.fail("%s signature folded in one pass differs from the replay's", p.class)
		}
		n += len(all)
		total += end.Sub(start)
	}
	out.set("signature.fold_maccesses_per_s", float64(n)/total.Seconds()/1e6, "Macc/s")
	return nil
}

// probeRender warms a study on every artifact, then times
// Study.RenderArtifactCSV for each and checks the bytes against the
// goldens.
func probeRender(ctx context.Context, e *env, tr *tracer, out *outcome) error {
	goldens, err := loadGoldens(e.root)
	if err != nil {
		return err
	}
	study := coldtall.NewStudy()
	op := tr.op()
	for _, name := range coldtall.Artifacts().Names() {
		var berr error
		tr.timed("artifact.build_warmup", op, 0, func() { _, berr = study.ArtifactTable(name) })
		if berr != nil {
			return berr
		}
	}
	for _, d := range coldtall.Artifacts().Descriptors() {
		var b bytes.Buffer
		var rerr error
		tr.timed("report.render_csv", op, 0, func() { rerr = study.RenderArtifactCSV(&b, d.Name) })
		if rerr != nil {
			return rerr
		}
		out.attempted++
		if !bytes.Equal(b.Bytes(), goldens[d.File]) {
			out.fail("warm render of %s differs from testdata/golden", d.Name)
		}
	}
	out.set("report.render_csv_ms", sum(tr.durations("report.render_csv")), "ms")
	return nil
}
