package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeEntry hammers the entry parser with arbitrary bytes: every
// input must either decode cleanly or return errCorrupt — no panics, no
// partial values — and anything encodeEntry produced must round-trip.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("coldtall-store/1\n"))
	f.Add(encodeEntry("v1", "char|SRAM|350", []byte("payload")))
	f.Add(encodeEntry("v1", "k", nil))
	f.Add([]byte("coldtall-store/1\nversion \"v1\"\nkey \"k\"\nlen 999999\ncrc32 00000000\nshort"))
	f.Add([]byte("coldtall-store/1\nversion \"v1\"\nkey \"k\"\nlen -1\ncrc32 zz\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		version, key, val, err := decodeEntry(raw)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the identical bytes —
		// the format has exactly one spelling per entry.
		if got := encodeEntry(version, key, val); !bytes.Equal(got, raw) {
			t.Errorf("decode/encode not a fixed point:\nin:  %q\nout: %q", raw, got)
		}
	})
}

func mustRecord(version, key string, val []byte) []byte {
	rec, err := encodeRecord(version, key, val)
	if err != nil {
		panic(err)
	}
	return rec
}

// FuzzStoreGetNeverPanics drops arbitrary bytes where the active segment
// would live and asserts that Open and the read path quarantine rather
// than panic, and that the slot remains usable afterwards (the cache is
// never poisoned).
func FuzzStoreGetNeverPanics(f *testing.F) {
	f.Add([]byte("total garbage"))
	f.Add(mustRecord("v1", "the-key", []byte("fine")))
	f.Add(mustRecord("other-version", "the-key", []byte("stale")))
	f.Add(mustRecord("v1", "wrong-key", []byte("misfiled")))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const key = "the-key"
		if v, ok := s.Get(key); ok {
			// Only a well-formed same-version record for this exact key
			// may be served, and then it must carry that payload.
			if !bytes.Contains(raw, mustRecord("v1", key, v)) {
				t.Fatalf("Get served %q from raw %q", v, raw)
			}
		}
		if err := s.Walk("", func(string, []byte) error { return nil }); err != nil {
			t.Fatalf("walk errored on a fuzzed segment: %v", err)
		}
		// The slot must be clean for a recompute regardless of what the
		// fuzzer left there.
		if err := s.Put(key, []byte("recomputed")); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get(key); !ok || string(v) != "recomputed" {
			t.Fatalf("slot poisoned after a fuzzed segment: %q, %v", v, ok)
		}
	})
}

// FuzzSegmentRecover damages a segment that Put built — bit flips,
// truncations and splices, driven by the fuzz input six bytes per
// operation — and asserts that Open never fails or panics, that Get and
// Walk return only bytes once Put under that very key, and that an append
// after the recovery survives a reopen.
func FuzzSegmentRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 40, 0, 0, 3})   // flip a header bit
	f.Add([]byte{1, 0, 200, 0, 0, 0})  // truncate mid-segment
	f.Add([]byte{2, 0, 0, 0, 90, 120}) // splice a record fragment
	f.Add([]byte{0, 1, 10, 0, 0, 7, 1, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		src := t.TempDir()
		s, err := Open(src, Options{Version: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		// put records every value each key ever held; a damaged log may
		// serve an older one, never another key's or a made-up one.
		put := map[string][][]byte{}
		write := func(k, v string) {
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			put[k] = append(put[k], []byte(v))
		}
		for i := 0; i < 4; i++ {
			write(fmt.Sprintf("k%d", i), fmt.Sprintf("first value of k%d", i))
		}
		write("k1", "second value of k1")
		write("k2", "")
		if err := s.Delete("k3"); err != nil {
			t.Fatal(err)
		}
		write("k0", "third\nvalue\x00of k0")
		s.Close()
		seg, err := os.ReadFile(filepath.Join(src, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		for len(ops) >= 6 && len(seg) > 0 {
			a := int(binary.BigEndian.Uint16(ops[1:])) % len(seg)
			b := int(binary.BigEndian.Uint16(ops[3:])) % len(seg)
			c := int(ops[5])
			switch ops[0] % 3 {
			case 0:
				seg[a] ^= 1 << (c % 8)
			case 1:
				seg = seg[:a]
			case 2:
				frag := append([]byte(nil), seg[a:min(a+c, len(seg))]...)
				seg = append(seg[:b], append(frag, seg[b:]...)...)
			}
			ops = ops[6:]
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatalf("Open of a damaged segment: %v", err)
		}
		defer s.Close()
		wasPut := func(k string, v []byte) bool {
			for _, p := range put[k] {
				if bytes.Equal(p, v) {
					return true
				}
			}
			return false
		}
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("k%d", i)
			if v, ok := s.Get(k); ok && !wasPut(k, v) {
				t.Fatalf("Get(%s) = %q, never put under it", k, v)
			}
		}
		if err := s.Walk("", func(k string, v []byte) error {
			if !wasPut(k, v) {
				t.Fatalf("Walk visited %s = %q, never put under it", k, v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("k0", []byte("recomputed")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s, err = Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if v, ok := s.Get("k0"); !ok || string(v) != "recomputed" {
			t.Fatalf("append after recovery lost: %q, %v", v, ok)
		}
	})
}
