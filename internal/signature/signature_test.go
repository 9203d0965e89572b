package signature_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// accumulate runs a slice through a fresh accumulator.
func accumulate(accesses []trace.Access) signature.Signature {
	acc := signature.NewAccumulator()
	for _, a := range accesses {
		acc.Observe(a)
	}
	return acc.Signature()
}

func TestAccumulatorHandStream(t *testing.T) {
	// Blocks: 0, 1, 0, 0, 100 — footprint 3 blocks; reuse intervals 2 and
	// 1; strides +1, -1, 0, +100.
	accesses := []trace.Access{
		{Addr: 0x00},
		{Addr: 0x40, Write: true},
		{Addr: 0x00},
		{Addr: 0x3f}, // same block as 0x00
		{Addr: 100 * 64},
	}
	s := accumulate(accesses)
	if s.Accesses != 5 || s.Reads != 4 || s.Writes != 1 {
		t.Fatalf("counts = %d/%d/%d, want 5/4/1", s.Accesses, s.Reads, s.Writes)
	}
	if s.FootprintBlocks != 3 {
		t.Fatalf("footprint = %d blocks, want 3", s.FootprintBlocks)
	}
	if s.FootprintBytes() != 3*64 {
		t.Fatalf("footprint bytes = %d, want 192", s.FootprintBytes())
	}
	// Reuse: access 3 re-touches block 0 at interval 2 (bucket 1); access
	// 4 at interval 1 (bucket 0).
	if s.Reuse[0] != 1 || s.Reuse[1] != 1 {
		t.Fatalf("reuse histogram = %v", s.Reuse)
	}
	var reuseTotal uint64
	for _, c := range s.Reuse {
		reuseTotal += c
	}
	if reuseTotal+s.FootprintBlocks != s.Accesses {
		t.Fatalf("reuse %d + footprint %d != accesses %d", reuseTotal, s.FootprintBlocks, s.Accesses)
	}
	// Strides: |+1| (bucket 1), |-1| (bucket 1), 0 (bucket 0), |+100|
	// (2^6 <= 100 < 2^7 -> bucket 7).
	if s.Stride[0] != 1 || s.Stride[1] != 2 || s.Stride[7] != 1 {
		t.Fatalf("stride histogram = %v", s.Stride)
	}
	if got := s.SeqFrac(); got != 0.5 {
		t.Fatalf("SeqFrac = %g, want 0.5", got)
	}
	if got := s.ReadFrac(); got != 0.8 {
		t.Fatalf("ReadFrac = %g, want 0.8", got)
	}
	if q := s.ReuseQuantile(0.5); q != 1 {
		t.Fatalf("p50 reuse = %d, want 1", q)
	}
	if q := s.ReuseQuantile(1.0); q != 2 {
		t.Fatalf("p100 reuse = %d, want 2", q)
	}
}

func TestZeroValueSignature(t *testing.T) {
	var s signature.Signature
	if s.ReadFrac() != 1 {
		t.Fatalf("empty ReadFrac = %g, want 1", s.ReadFrac())
	}
	if s.ReuseQuantile(0.9) != 0 {
		t.Fatalf("empty reuse quantile = %d, want 0", s.ReuseQuantile(0.9))
	}
	if s.SeqFrac() != 0 {
		t.Fatalf("empty SeqFrac = %g, want 0", s.SeqFrac())
	}
	if signature.Distance(s, s) != 0 {
		t.Fatalf("Distance(zero, zero) = %g, want 0", signature.Distance(s, s))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, err := trace.NewZipf(trace.Region{Base: 1 << 30, Size: 1 << 22}, 1.2, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := signature.FromGenerator(g, 20000)
	enc := s.Encode()
	if !strings.HasPrefix(string(enc), "coldtall-sig/1\n") {
		t.Fatalf("encoding missing magic: %q", enc[:20])
	}
	back, err := signature.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("decode drifted:\n got %+v\nwant %+v", back, s)
	}
	if !bytes.Equal(back.Encode(), enc) {
		t.Fatal("re-encode not byte-identical")
	}
	if s.SHA256() != back.SHA256() {
		t.Fatal("content address drifted across round trip")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var s signature.Signature
	good := s.Encode()
	for name, data := range map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("coldtall-sig/9\naccesses 0\n"),
		"truncated":   good[:len(good)/2],
		"bad scalar":  bytes.Replace(good, []byte("accesses 0"), []byte("accesses x"), 1),
		"short hist":  bytes.Replace(good, []byte("stride 0 0"), []byte("stride 0"), 1),
		"wrong field": bytes.Replace(good, []byte("reads"), []byte("loads"), 1),
	} {
		if _, err := signature.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

// TestReplayerObserverEncoding pins the observer contract of
// sim.Replayer: a signature accumulated as its observer encodes
// byte-identically to one fed straight from the access slice, whatever
// the batch size, including batches that straddle the 4096-access trace
// block and a warmup cut that lands mid-block.
func TestReplayerObserverEncoding(t *testing.T) {
	g, err := trace.NewZipf(trace.Region{Base: 1 << 28, Size: 1 << 24}, 1.1, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 100000)
	ref := accumulate(accesses).Encode()
	warm := len(accesses) / 4 // 25000: not a multiple of 4096
	for _, batch := range []int{1, 4095, 4096, 65536} {
		eng, err := sim.NewReplayer(sim.TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		acc := signature.NewAccumulator()
		eng.SetObserver(acc.Observe)
		for _, part := range [][]trace.Access{accesses[:warm], accesses[warm:]} {
			for off := 0; off < len(part); off += batch {
				if err := eng.Replay(context.Background(), part[off:min(off+batch, len(part))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := acc.Signature().Encode(); !bytes.Equal(got, ref) {
			t.Fatalf("batch=%d: replay-observed signature encoding differs from direct accumulation", batch)
		}
	}
}

// TestTextVsBinaryEncoding pins the other determinism leg: decoding the
// same stream from its text or its binary serialization yields
// byte-identical canonical signature encodings.
func TestTextVsBinaryEncoding(t *testing.T) {
	g, err := trace.NewStream(trace.Region{Base: 0, Size: 1 << 20}, 1, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	accesses := trace.Collect(g, 5000)
	var text bytes.Buffer
	if err := trace.WriteText(&text, accesses); err != nil {
		t.Fatal(err)
	}
	bin := trace.EncodeBinary(accesses)

	fromReader := func(r trace.Reader) []byte {
		t.Helper()
		all, err := trace.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return accumulate(all).Encode()
	}
	fromText := fromReader(trace.NewTextReader(bytes.NewReader(text.Bytes())))
	fromBin := fromReader(trace.NewBinaryReader(bytes.NewReader(bin)))
	if !bytes.Equal(fromText, fromBin) {
		t.Fatal("text- and binary-decoded signature encodings differ")
	}
	if !bytes.Equal(fromText, accumulate(accesses).Encode()) {
		t.Fatal("decoded signature differs from the in-memory stream's")
	}
}

func TestDistanceProperties(t *testing.T) {
	mk := func(skew float64, writeFrac float64, seed int64) signature.Signature {
		g, err := trace.NewZipf(trace.Region{Base: 1 << 30, Size: 1 << 24}, skew, writeFrac, seed)
		if err != nil {
			t.Fatal(err)
		}
		return signature.FromGenerator(g, 30000)
	}
	a, b := mk(1.2, 0.3, 1), mk(1.2, 0.3, 2)
	if d := signature.Distance(a, a); d != 0 {
		t.Fatalf("self distance = %g, want 0", d)
	}
	if d1, d2 := signature.Distance(a, b), signature.Distance(b, a); d1 != d2 {
		t.Fatalf("distance not symmetric: %g vs %g", d1, d2)
	}
	// Same generator, different seed: statistically the same locality.
	if d := signature.Distance(a, b); d > signature.DefaultThreshold {
		t.Fatalf("same-generator seeds at distance %g, want <= %g", d, signature.DefaultThreshold)
	}
	// A streaming scan is nothing like a hot zipf loop.
	gs, err := trace.NewStream(trace.Region{Base: 0, Size: 1 << 28}, 1, 0.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	far := signature.FromGenerator(gs, 30000)
	if d := signature.Distance(a, far); d <= signature.DefaultThreshold {
		t.Fatalf("zipf vs stream at distance %g, want > threshold", d)
	}
	if d := signature.Distance(a, far); d < 0 || d > 1 || math.IsNaN(d) {
		t.Fatalf("distance %g out of [0,1]", d)
	}
}

// TestProfilesAreDistinguishable checks the dedup threshold separates the
// built-in SPEC stand-ins from each other: pairwise distances between
// clearly different profiles must exceed the threshold, while a profile
// re-generated under another seed stays within it.
func TestProfilesAreDistinguishable(t *testing.T) {
	names := []string{"mcf", "lbm", "perlbench", "bwaves"}
	sigs := make(map[string]signature.Signature)
	for _, n := range names {
		p, err := workload.ProfileByName(n)
		if err != nil {
			t.Fatal(err)
		}
		g, err := p.Generator(1)
		if err != nil {
			t.Fatal(err)
		}
		sigs[n] = signature.FromGenerator(g, 40000)
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			if d := signature.Distance(sigs[a], sigs[b]); d <= signature.DefaultThreshold {
				t.Errorf("%s vs %s at distance %g, want > %g", a, b, d, signature.DefaultThreshold)
			}
		}
	}
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p.Generator(2)
	if err != nil {
		t.Fatal(err)
	}
	reseeded := signature.FromGenerator(g2, 40000)
	if d := signature.Distance(sigs["mcf"], reseeded); d > signature.DefaultThreshold {
		t.Errorf("mcf reseeded at distance %g, want <= %g", d, signature.DefaultThreshold)
	}
}

func TestIndexRanking(t *testing.T) {
	idx := signature.NewIndex()
	if _, ok := idx.Nearest(signature.Signature{}, nil); ok {
		t.Fatal("empty index returned a nearest match")
	}
	mk := func(skew float64, seed int64) signature.Signature {
		g, err := trace.NewZipf(trace.Region{Base: 1 << 30, Size: 1 << 24}, skew, 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		return signature.FromGenerator(g, 20000)
	}
	near, farther := mk(1.2, 1), mk(2.0, 2)
	idx.Add("near", near)
	idx.Add("farther", farther)
	idx.Add("dup", near)
	if idx.Len() != 3 {
		t.Fatalf("Len = %d, want 3", idx.Len())
	}
	probe := mk(1.2, 3)
	ranked := idx.Rank(probe, func(name string) bool { return name == "dup" })
	if len(ranked) != 2 || ranked[0].Name != "near" || ranked[1].Name != "farther" {
		t.Fatalf("Rank = %+v", ranked)
	}
	if ranked[0].Distance > ranked[1].Distance {
		t.Fatal("ranking not ascending")
	}
	// Ties (identical signatures) break by name.
	tied := idx.Rank(near, nil)
	if tied[0].Distance != 0 || tied[1].Distance != 0 || tied[0].Name != "dup" || tied[1].Name != "near" {
		t.Fatalf("tie ordering = %+v", tied)
	}
	idx.Remove("near")
	if _, ok := idx.Get("near"); ok {
		t.Fatal("Remove left the entry behind")
	}
	if got := idx.Names(); len(got) != 2 || got[0] != "dup" || got[1] != "farther" {
		t.Fatalf("Names = %v", got)
	}
}
