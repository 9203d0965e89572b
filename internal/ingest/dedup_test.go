package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/store"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// dedupOptions builds Options with a live signature index and store.
func dedupOptions(t *testing.T) (Options, *workload.Registry, *signature.Index, *store.Store) {
	t.Helper()
	reg := workload.NewRegistry()
	idx := signature.NewIndex()
	st := testStore(t)
	return Options{Workloads: reg, Store: st, Sigs: idx}, reg, idx, st
}

// TestStreamingMatchesMaterialized is the differential harness pinning
// the streaming replay: an independent reference implementation —
// materialize the whole []trace.Access, encode, replay serially with the
// warmup quarter excluded — must agree byte-for-byte on the canonical
// trace (content address and stored bytes), the measured window
// counters, the signature and the extrapolated Traffic. The same accesses
// are uploaded as text, as canonical .ctrace, re-framed with a short
// first block, and with one padded varint: only the canonical upload is
// used as is, and every form must come out the same.
func TestStreamingMatchesMaterialized(t *testing.T) {
	g, err := trace.NewZipf(trace.Region{Base: 1 << 30, Size: 16 << 20}, 1.2, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 80000)
	var text bytes.Buffer
	if err := trace.WriteText(&text, accesses); err != nil {
		t.Fatal(err)
	}

	// Reference path: fully materialized, one access at a time through a
	// bare hierarchy and accumulator.
	canonical := trace.EncodeBinary(accesses)
	sum := sha256.Sum256(canonical)
	wantSHA := hex.EncodeToString(sum[:])
	h, err := sim.NewHierarchy(sim.TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc := signature.NewAccumulator()
	warmup := len(accesses) / 4
	var atWarm sim.HierarchyStats
	for i, a := range accesses {
		if i == warmup {
			atWarm = h.Snapshot()
		}
		acc.Observe(a)
		h.Access(a)
	}
	window := h.Snapshot().Sub(atWarm)
	wantSig := acc.Signature().SHA256()
	wantTraffic := workload.Extrapolate("streamed", window.LLC().Reads, window.LLC().Writes,
		window.Accesses, DefaultMemOpsPerKiloInstr, DefaultIPC)

	reframed := append(trace.EncodeBinary(accesses[:1000]), trace.EncodeBinary(accesses[1000:])[len(ctraceMagic):]...)
	blocks := splitFrames(t, canonical)
	blocks[1].payload = padFirstVarint(blocks[1].payload)
	padded := joinFrames(blocks)
	if bytes.Equal(reframed, canonical) || bytes.Equal(padded, canonical) {
		t.Fatal("test is vacuous: a non-canonical form equals the canonical bytes")
	}
	for _, form := range []struct {
		name   string
		upload []byte
	}{
		{"text", text.Bytes()},
		{"canonical", canonical},
		{"reframed", reframed},
		{"padded", padded},
	} {
		t.Run(form.name, func(t *testing.T) {
			st := testStore(t)
			res, err := Run(context.Background(), Spec{Name: "streamed", Trace: form.upload},
				Options{Workloads: workload.NewRegistry(), Store: st, Sigs: signature.NewIndex()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Source.TraceSHA256 != wantSHA {
				t.Fatalf("canonical trace address %s, want %s", res.Source.TraceSHA256, wantSHA)
			}
			if res.TraceBytes != len(canonical) {
				t.Fatalf("TraceBytes = %d, want %d", res.TraceBytes, len(canonical))
			}
			if stored, ok := st.Get(TraceKeyPrefix + wantSHA); !ok || !bytes.Equal(stored, canonical) {
				t.Fatalf("stored trace| bytes are not EncodeBinary(accesses) (present %v)", ok)
			}
			if res.Source.Traffic != wantTraffic {
				t.Fatalf("traffic drifted:\n got %+v\nwant %+v", res.Source.Traffic, wantTraffic)
			}
			if !reflect.DeepEqual(res.Stats, window) {
				t.Fatalf("window counters drifted:\n got %+v\nwant %+v", res.Stats, window)
			}
			if res.SignatureSHA256 != wantSig {
				t.Fatalf("signature %s, want %s", res.SignatureSHA256, wantSig)
			}
		})
	}
}

// TestMalformedUploadPersistsNothing: a .ctrace upload whose CRCs are
// all valid but whose content does not decode must fail as a decode
// error and leave nothing behind — no trace|, sig| or workload| entry,
// no registry entry, no signature.
func TestMalformedUploadPersistsNothing(t *testing.T) {
	g, err := trace.NewStream(trace.Region{Base: 0, Size: 32 << 20}, 1, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	blocks := splitFrames(t, trace.EncodeBinary(trace.Collect(g, 20000)))
	last := len(blocks) - 1
	for name, edit := range map[string]func(b []frameBlock){
		// The frame claims one access more than the runs cover.
		"runs short of block": func(b []frameBlock) { b[last].count++ },
		"trailing payload": func(b []frameBlock) {
			b[last].payload = append(append([]byte(nil), b[last].payload...), 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			bs := append([]frameBlock(nil), blocks...)
			edit(bs)
			opts, reg, idx, st := dedupOptions(t)
			_, err := Run(context.Background(), Spec{Name: "broken", Trace: joinFrames(bs)}, opts)
			if err == nil || !strings.Contains(err.Error(), "ingest: decoding trace") {
				t.Fatalf("Run error = %v, want an ingest: decoding trace error", err)
			}
			var keys []string
			if err := st.Walk("", func(key string, _ []byte) error {
				keys = append(keys, key)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 0 {
				t.Fatalf("a failed upload persisted %q", keys)
			}
			if n, sigs := len(reg.Custom()), idx.Rank(signature.Signature{}, nil); n != 0 || len(sigs) != 0 {
				t.Fatalf("a failed upload registered %d workloads and %d signatures", n, len(sigs))
			}
		})
	}
}

// ctraceMagic is the .ctrace stream header.
const ctraceMagic = "ctrace1\n"

// frameBlock is one .ctrace block: its access count and payload.
type frameBlock struct {
	count   uint64
	payload []byte
}

// splitFrames parses a well-formed .ctrace stream into its blocks.
func splitFrames(t *testing.T, data []byte) []frameBlock {
	t.Helper()
	var out []frameBlock
	for o := len(ctraceMagic); o < len(data); {
		count, n := binary.Uvarint(data[o:])
		o += n
		size, n := binary.Uvarint(data[o:])
		o += n
		if n <= 0 || o+int(size)+4 > len(data) {
			t.Fatalf("splitFrames: malformed frame at offset %d", o)
		}
		out = append(out, frameBlock{count, data[o : o+int(size)]})
		o += int(size) + 4
	}
	return out
}

// joinFrames frames blocks into a stream with fresh CRCs.
func joinFrames(blocks []frameBlock) []byte {
	out := []byte(ctraceMagic)
	for _, b := range blocks {
		out = binary.AppendUvarint(out, b.count)
		out = binary.AppendUvarint(out, uint64(len(b.payload)))
		out = append(out, b.payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(b.payload))
	}
	return out
}

// padFirstVarint re-encodes a payload's leading varint (its run count)
// one byte longer: the decoder reads the same value from bytes that are
// no longer canonical.
func padFirstVarint(p []byte) []byte {
	_, n := binary.Uvarint(p)
	out := append([]byte(nil), p[:n-1]...)
	out = append(out, p[n-1]|0x80, 0)
	return append(out, p[n:]...)
}

// TestExactDuplicateAliases pins the dedup invariant: a byte-identical
// re-upload under a second name registers an alias with zero replay work
// — the progress callback (the replay's only side channel) must never
// fire, and the measured window must be empty. It holds for generator
// specs and for .ctrace bytes, which are addressed before any decode.
func TestExactDuplicateAliases(t *testing.T) {
	g, err := trace.NewStream(trace.Region{Base: 1 << 30, Size: 64 << 20}, 1, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctrace := trace.EncodeBinary(trace.Collect(g, 50000))
	for _, tc := range []struct {
		name string
		spec func(name string) Spec
	}{
		{"generator", func(name string) Spec { return genSpec(name, 50000) }},
		{"ctrace", func(name string) Spec { return Spec{Name: name, Trace: ctrace} }},
	} {
		t.Run(tc.name, func(t *testing.T) { testExactDuplicateAliases(t, tc.spec) })
	}
}

func testExactDuplicateAliases(t *testing.T, spec func(name string) Spec) {
	opts, reg, idx, st := dedupOptions(t)
	orig, err := Run(context.Background(), spec("orig"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Deduped {
		t.Fatal("first upload deduped against an empty registry")
	}
	if orig.SignatureSHA256 == "" {
		t.Fatal("first upload carries no signature address")
	}
	if _, ok := st.Get(signature.KeyPrefix + orig.Source.TraceSHA256); !ok {
		t.Fatal("signature not persisted under sig|<trace sha>")
	}

	replays := 0
	opts.OnProgress = func(done, total uint64) { replays++ }
	copySpec := spec("copy") // identical canonical bytes
	res, err := Run(context.Background(), copySpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if replays != 0 {
		t.Fatalf("exact duplicate replayed (%d progress callbacks), want zero work", replays)
	}
	if !res.Deduped || res.AliasOf != "orig" || res.DedupDistance != 0 {
		t.Fatalf("dedup result = %+v", res)
	}
	if res.ReplaySeconds != 0 || res.Stats.Accesses != 0 {
		t.Fatalf("alias result reports replay work: %+v", res)
	}
	if res.Source.Kind != workload.SourceAlias || res.Source.AliasOf != "orig" {
		t.Fatalf("registered source = %+v", res.Source)
	}
	if res.SignatureSHA256 != orig.SignatureSHA256 {
		t.Fatal("alias does not share the canonical signature address")
	}
	// The alias resolves to the canonical entry's traffic and is recorded
	// in the registry, the store, and the signature index.
	if tr, err := reg.Traffic("copy"); err != nil || tr != orig.Source.Traffic {
		t.Fatalf("alias traffic = %+v, %v", tr, err)
	}
	if reg.Canonical("copy") != "orig" {
		t.Fatal("Canonical(copy) != orig")
	}
	if _, ok := st.Get(WorkloadKeyPrefix + "copy"); !ok {
		t.Fatal("alias record not persisted")
	}
	if s, ok := idx.Get("copy"); !ok || s.SHA256() != orig.SignatureSHA256 {
		t.Fatal("alias signature not indexed")
	}

	// Re-running the alias spec is idempotent and still does zero work.
	again, err := Run(context.Background(), copySpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if replays != 0 || !again.Deduped || again.Source != res.Source {
		t.Fatalf("alias re-run not idempotent: %+v", again)
	}
}

// TestNearDuplicateAliases covers the signature-distance path: the same
// generator under a different seed produces different bytes but the same
// locality, so it aliases after one replay; a genuinely different
// pattern does not.
func TestNearDuplicateAliases(t *testing.T) {
	zipf := func(name string, seed int64) Spec {
		return Spec{Name: name, Generator: &GeneratorSpec{
			Pattern: "zipf", WorkingSetBytes: 16 << 20, ZipfSkew: 1.2,
			WriteFrac: 0.3, Accesses: 50000, Seed: seed,
		}}
	}
	opts, reg, _, _ := dedupOptions(t)
	base, err := Run(context.Background(), zipf("base", 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	near, err := Run(context.Background(), zipf("near", 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !near.Deduped || near.AliasOf != "base" {
		t.Fatalf("reseeded generator not deduped: %+v", near)
	}
	if near.DedupDistance <= 0 || near.DedupDistance > signature.DefaultThreshold {
		t.Fatalf("dedup distance = %g", near.DedupDistance)
	}
	if near.Source.TraceSHA256 == base.Source.TraceSHA256 {
		t.Fatal("test is vacuous: reseeded bytes are identical")
	}
	// The near-duplicate replay did happen once (stats measured).
	if near.Stats.Accesses == 0 || near.ReplaySeconds == 0 {
		t.Fatalf("near-duplicate skipped its one replay: %+v", near)
	}
	if tr, err := reg.Traffic("near"); err != nil || tr != base.Source.Traffic {
		t.Fatalf("alias traffic = %+v, %v", tr, err)
	}

	// A streaming scan is far from the zipf loop: registers canonically.
	far, err := Run(context.Background(), genSpec("far", 50000), opts)
	if err != nil {
		t.Fatal(err)
	}
	if far.Deduped {
		t.Fatalf("distinct pattern deduped at distance %g", far.DedupDistance)
	}
	if far.Source.Kind != workload.SourceProfile {
		t.Fatalf("far kind = %q", far.Source.Kind)
	}
}

// TestDedupRespectsCoreModel: identical bytes under a different core
// model must NOT alias — the alias would inherit traffic extrapolated
// with the wrong IPC.
func TestDedupRespectsCoreModel(t *testing.T) {
	opts, _, _, _ := dedupOptions(t)
	if _, err := Run(context.Background(), genSpec("modela", 50000), opts); err != nil {
		t.Fatal(err)
	}
	other := genSpec("modelb", 50000)
	other.IPC = 2.0
	res, err := Run(context.Background(), other, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped {
		t.Fatal("deduped across different core models")
	}
}

// TestRecoverAliasesAndSignatures: boot recovery rebuilds alias entries
// (even when the store walk hands the alias over before its canonical
// record) and the signature index.
func TestRecoverAliasesAndSignatures(t *testing.T) {
	opts, _, idx, st := dedupOptions(t)
	// "zz-canon" sorts after "aa-alias", so the walk sees the alias first.
	if _, err := Run(context.Background(), genSpec("zz-canon", 50000), opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), genSpec("aa-alias", 50000), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduped {
		t.Fatal("setup: second upload not deduped")
	}

	fresh := workload.NewRegistry()
	recovered, skipped, err := RecoverSources(st, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 2 || skipped != 0 {
		t.Fatalf("recovered %d, skipped %d; want 2 and 0", recovered, skipped)
	}
	if fresh.Canonical("aa-alias") != "zz-canon" {
		t.Fatal("alias not recovered")
	}

	freshIdx := signature.NewIndex()
	if got := RecoverSignatures(st, fresh, freshIdx); got != 2 {
		t.Fatalf("RecoverSignatures = %d, want 2", got)
	}
	want, _ := idx.Get("zz-canon")
	if s, ok := freshIdx.Get("zz-canon"); !ok || s != want {
		t.Fatal("recovered signature drifted")
	}
	// Recovery is nil-safe for stores without signatures.
	if got := RecoverSignatures(nil, fresh, freshIdx); got != 0 {
		t.Fatalf("nil-store recovery = %d", got)
	}
}
