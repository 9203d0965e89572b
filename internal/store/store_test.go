package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func open(t testing.TB, dir, version string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Version: version})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// segments returns the paths of dir's segment files, oldest first.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// diskBytes is the total size of dir's segment files.
func diskBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var n int64
	for _, p := range segments(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// recordOffset finds key's newest record in dir's segments and returns
// its segment path, offset and the offset of its payload.
func recordOffset(t testing.TB, dir, key string) (path string, off, payload int) {
	t.Helper()
	head := []byte(magic + "\n")
	found := false
	for _, p := range segments(t, dir) {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < len(raw); {
			h, err := parseHeader(raw[o:])
			if err != nil {
				break
			}
			if h.key == key {
				path, off, payload, found = p, o, o+h.size, true
			}
			next := bytes.Index(raw[o+len(head):], head)
			if next < 0 {
				break
			}
			o += len(head) + next
		}
	}
	if !found {
		t.Fatalf("no record for %q", key)
	}
	return path, off, payload
}

// patch overwrites bytes of a segment file in place.
func patch(t testing.TB, path string, off int, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, int64(off)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidates(t *testing.T) {
	if _, err := Open("", Options{Version: "v1"}); err == nil {
		t.Error("empty dir should error")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("missing version stamp should error")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if _, ok := s.Get("missing"); ok {
		t.Error("missing key should miss")
	}
	val := []byte("payload with\nnewlines and \x00 bytes")
	if err := s.Put("k|1", val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k|1")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	// Overwrite is a plain replace.
	if err := s.Put("k|1", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("k|1"); string(got) != "second" {
		t.Errorf("after overwrite Get = %q", got)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReopenSurvivesRestart is the core persistence contract: a new Store
// over the same directory serves entries written by the old one.
func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, "v1")
	for i := 0; i < 5; i++ {
		if err := s1.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	s2 := open(t, dir, "v1")
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("after reopen, key-%d = %q, %v", i, got, ok)
		}
	}
	if n := s2.Len(); n != 5 {
		t.Errorf("Len = %d, want 5", n)
	}
}

// TestVersionSkewInvalidates pins the model-version contract: entries
// written under one physics version are invisible under another, and a
// fresh Put replaces the stale entry.
func TestVersionSkewInvalidates(t *testing.T) {
	dir := t.TempDir()
	old := open(t, dir, "v1")
	if err := old.Put("k", []byte("stale physics")); err != nil {
		t.Fatal(err)
	}
	old.Close()
	next := open(t, dir, "v2")
	if _, ok := next.Get("k"); ok {
		t.Fatal("v2 store must not serve a v1 entry")
	}
	if next.Stats().Skipped == 0 {
		t.Error("version skew should be counted")
	}
	if err := next.Put("k", []byte("fresh physics")); err != nil {
		t.Fatal(err)
	}
	if got, ok := next.Get("k"); !ok || string(got) != "fresh physics" {
		t.Fatalf("after re-put, Get = %q, %v", got, ok)
	}
	if n := next.Len(); n != 1 {
		t.Errorf("the fresh entry should replace the stale one, Len = %d", n)
	}
}

// TestCorruptEntryQuarantined: a record damaged after Open reports a
// miss, is copied into quarantine/, and the key is writable again — never
// a panic, never a poisoned value.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	if err := s.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	path, off, _ := recordOffset(t, dir, "k")
	patch(t, path, off, []byte(magic+"\ngarbage"))
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry must miss")
	}
	if s.Stats().Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", s.Stats().Corrupt)
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantine dir holds %d files (err %v), want 1", len(quarantined), err)
	}
	// The slot is clean again.
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "recomputed" {
		t.Fatalf("after recompute, Get = %q, %v", got, ok)
	}
}

// TestCRCMismatchQuarantined: a bit flip in the payload fails the CRC,
// both on a read and on the scan of the next Open, which goes on past the
// damaged record.
func TestCRCMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	for _, k := range []string{"k", "after"} {
		if err := s.Put(k, []byte("sensitive-bits")); err != nil {
			t.Fatal(err)
		}
	}
	path, _, payload := recordOffset(t, dir, "k")
	patch(t, path, payload, []byte("S"))
	if _, ok := s.Get("k"); ok {
		t.Fatal("bit-flipped entry must miss")
	}
	if s.Stats().Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", s.Stats().Corrupt)
	}
	s.Close()
	s = open(t, dir, "v1")
	// The scan itself drops the record: counted, and out of the index,
	// before any read.
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 1 {
		t.Errorf("after a reopen: %d corrupt, %d entries; want 1, 1", st.Corrupt, st.Entries)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("bit-flipped entry must miss after a reopen")
	}
	if got, ok := s.Get("after"); !ok || string(got) != "sensitive-bits" {
		t.Fatalf("the record after a bad payload = %q, %v", got, ok)
	}
}

// TestUnreadableHeaderEndsScan: a record whose header cannot be read (here,
// one its trailer does not vouch for) ends its segment's scan at Open. The
// rest of the segment is quarantined and truncated off the active segment,
// so the next append is reachable.
func TestUnreadableHeaderEndsScan(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, []byte("val-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path, off, _ := recordOffset(t, dir, "b")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Relabel b's record as z: the header still parses and the payload CRC
	// still holds, so only the trailer tells the damage apart.
	patch(t, path, off+bytes.Index(raw[off:], []byte(`key "b"`))+len(`key "`), []byte("z"))
	s = open(t, dir, "v1")
	if got, ok := s.Get("a"); !ok || string(got) != "val-a" {
		t.Fatalf("record before the damage = %q, %v", got, ok)
	}
	for _, k := range []string{"b", "z", "c"} {
		if _, ok := s.Get(k); ok {
			t.Errorf("%s past an unreadable header must miss", k)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(off) {
		t.Fatalf("active segment not truncated to %d: %v, %v", off, fi.Size(), err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, quarantineDir, fmt.Sprintf("%010d-%d.tail", 1, off)))
	if err != nil || !bytes.Contains(tail, []byte("val-c")) {
		t.Fatalf("quarantined tail = %q, %v", tail, err)
	}
	if err := s.Put("d", []byte("val-d")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = open(t, dir, "v1")
	if got, ok := s.Get("d"); !ok || string(got) != "val-d" {
		t.Fatalf("append after the truncation = %q, %v", got, ok)
	}
}

func TestWalkVisitsLiveEntriesInOrder(t *testing.T) {
	dir := t.TempDir()
	// A foreign-version entry must be skipped.
	other := open(t, dir, "v0")
	if err := other.Put("ghost", []byte("old")); err != nil {
		t.Fatal(err)
	}
	other.Close()
	s := open(t, dir, "v1")
	want := map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}
	for k, v := range want {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt record must be quarantined and skipped.
	path, _, payload := recordOffset(t, dir, "d")
	patch(t, path, payload, []byte("X"))
	delete(want, "d")
	got := map[string]string{}
	var order []string
	if err := s.Walk("", func(key string, val []byte) error {
		got[key] = string(val)
		order = append(order, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("walked %v, want keys of %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("walk[%s] = %q, want %q", k, got[k], v)
		}
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool {
		a, b := keyHash(order[i]), keyHash(order[j])
		return bytes.Compare(a[:], b[:]) < 0
	}) {
		t.Errorf("walk order %v is not keyHash order", order)
	}
	if s.Stats().Corrupt == 0 {
		t.Error("walk should have quarantined the damaged record")
	}
	if s.Stats().Skipped == 0 {
		t.Error("walk should have skipped the foreign-version entry")
	}
}

// TestWalkPrefix: a prefixed walk sees only its namespace, in keyHash
// order, and does not count as Get traffic.
func TestWalkPrefix(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	var want []string
	for i := 0; i < 20; i++ {
		for _, ns := range []string{"job|", "char|", "jobresult|"} {
			k := fmt.Sprintf("%s%d", ns, i)
			if err := s.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
			if ns == "job|" {
				want = append(want, k)
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		return hex.EncodeToString(keyHashSlice(want[i])) < hex.EncodeToString(keyHashSlice(want[j]))
	})
	var got []string
	if err := s.Walk("job|", func(key string, val []byte) error {
		if string(val) != key {
			t.Errorf("walk[%s] = %q", key, val)
		}
		got = append(got, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Walk(job|) = %v\nwant %v", got, want)
	}
	if h := s.Stats().Hits; h != 0 {
		t.Errorf("walk counted %d Get hits, want 0", h)
	}
}

func keyHashSlice(key string) []byte {
	h := keyHash(key)
	return h[:]
}

func TestDelete(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("deleted key should miss")
	}
	if err := s.Delete("k"); err != nil {
		t.Error("double delete should be a no-op:", err)
	}
}

// TestDeleteSurvivesReopen: the tombstone is on disk, so a deleted key
// stays deleted after a restart, and a later Put of it wins again.
func TestDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	for _, k := range []string{"gone", "kept", "back"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"gone", "back"} {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("back", []byte("again")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = open(t, dir, "v1")
	if _, ok := s.Get("gone"); ok {
		t.Error("a deleted key came back after a reopen")
	}
	if got, ok := s.Get("kept"); !ok || string(got) != "kept" {
		t.Errorf("kept = %q, %v", got, ok)
	}
	if got, ok := s.Get("back"); !ok || string(got) != "again" {
		t.Errorf("re-put after a delete = %q, %v", got, ok)
	}
	if n := s.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

// TestKeyFormatGolden pins the on-disk contract so compatibility breaks
// loudly: the index hash Walk orders by (the truncated SHA-256 of the key
// that named the legacy entry files), the exact entry encoding, and the
// segment record (entry plus header-CRC trailer). If this test fails,
// readers of existing store directories will miss every entry — bump the
// magic and write a migration note before shipping such a change.
func TestKeyFormatGolden(t *testing.T) {
	const key = "char|SRAM-6T|sram|350|1|TSV|0|"
	if got, want := hex.EncodeToString(keyHashSlice(key)), "2010be8c306e4b754bbf6b7e0d75fe1e225f42fe"; got != want {
		t.Errorf("keyHash(%q) = %s, want %s", key, got, want)
	}
	wantEntry := "coldtall-store/1\n" +
		"version \"vtest\"\n" +
		"key \"char|SRAM-6T|sram|350|1|TSV|0|\"\n" +
		"len 13\n" +
		"crc32 44893831\n" +
		"hello-payload"
	if got := string(encodeEntry("vtest", key, []byte("hello-payload"))); got != wantEntry {
		t.Errorf("entry encoding drifted:\ngot:\n%s\nwant:\n%s", got, wantEntry)
	}
	rec, err := encodeRecord("vtest", key, []byte("hello-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(rec), wantEntry+"head 08d34384\n"; got != want {
		t.Errorf("record encoding drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentPutGet races writers and readers over a small keyspace;
// run under -race this pins the store's concurrency safety.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k-%d", i%7)
				if g%2 == 0 {
					if err := s.Put(key, []byte(key)); err != nil {
						t.Error(err)
						return
					}
				} else if v, ok := s.Get(key); ok && string(v) != key {
					t.Errorf("Get(%s) = %q", key, v)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestCrashAtEveryCut is the store's crash test: a process that dies
// mid-append leaves the active segment cut at an arbitrary byte. For every
// cut inside the last two records, Open must succeed, every earlier record
// must read back byte-identical, a torn record must read as a miss, and
// an append after the reopen must survive the next one.
func TestCrashAtEveryCut(t *testing.T) {
	src := t.TempDir()
	s := open(t, src, "v1")
	const n = 8
	var ends []int // end offset of each record
	end := 0
	for i := 0; i < n; i++ {
		val := bytes.Repeat([]byte{byte('a' + i)}, 10+7*i)
		if err := s.Put(fmt.Sprintf("rec-%d", i), val); err != nil {
			t.Fatal(err)
		}
		rec, _ := encodeRecord("v1", fmt.Sprintf("rec-%d", i), val)
		end += len(rec)
		ends = append(ends, end)
	}
	s.Close()
	seg := segments(t, src)
	if len(seg) != 1 {
		t.Fatalf("%d segments, want 1", len(seg))
	}
	full, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != end {
		t.Fatalf("segment holds %d bytes, want %d", len(full), end)
	}
	for cut := ends[n-3]; cut < end; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		for i := 0; i < n; i++ {
			got, ok := s.Get(fmt.Sprintf("rec-%d", i))
			want := bytes.Repeat([]byte{byte('a' + i)}, 10+7*i)
			if ends[i] <= cut {
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("cut %d: intact rec-%d = %q, %v", cut, i, got, ok)
				}
			} else if ok {
				t.Fatalf("cut %d: torn rec-%d served %q", cut, i, got)
			}
		}
		if err := s.Put("after", []byte("crash")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s, err = Open(dir, Options{Version: "v1"})
		if err != nil {
			t.Fatalf("cut %d: second Open: %v", cut, err)
		}
		if got, ok := s.Get("after"); !ok || string(got) != "crash" {
			t.Fatalf("cut %d: append after recovery = %q, %v", cut, got, ok)
		}
		s.Close()
	}
}

// TestOverwriteBound pins compaction's on-disk bound under the job-record
// pattern: one key overwritten 10,000 times. Compaction keeps dead bytes
// within max(live, compactFloor) after every write, so the segments never
// hold more than 2×live + compactFloor + one record — inside the
// documented 2×live + one segment — and a reopen keeps it so.
func TestOverwriteBound(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, "v1")
	val := make([]byte, 1024)
	var written, recLen int64
	for i := 0; i < 10000; i++ {
		copy(val, fmt.Sprintf("version %d", i))
		if err := s.Put("job|overwritten", val); err != nil {
			t.Fatal(err)
		}
		rec, _ := encodeRecord("v1", "job|overwritten", val)
		recLen = int64(len(rec))
		written += recLen
		if d := diskBytes(t, dir); d > 2*recLen+compactFloor+recLen {
			t.Fatalf("after %d puts the segments hold %d bytes, live %d", i+1, d, recLen)
		}
	}
	if d := diskBytes(t, dir); d >= written/4 {
		t.Fatalf("segments hold %d of %d written bytes: compaction never ran", d, written)
	}
	s.Close()
	s = open(t, dir, "v1")
	if got, ok := s.Get("job|overwritten"); !ok || !bytes.Equal(got, val) {
		t.Fatal("the last overwrite did not survive compaction and a reopen")
	}
	if d := diskBytes(t, dir); d > 2*recLen+compactFloor+recLen || d > 2*recLen+segmentBytes {
		t.Fatalf("after a reopen the segments hold %d bytes", d)
	}
}

// TestCompactionKeepsLiveSet: a compaction triggered by overwrites keeps
// every live value, drops deleted and other-version keys, and leaves a
// directory the next Open reads back the same.
func TestCompactionKeepsLiveSet(t *testing.T) {
	dir := t.TempDir()
	old := open(t, dir, "v0")
	if err := old.Put("stale", []byte("old physics")); err != nil {
		t.Fatal(err)
	}
	old.Close()
	s := open(t, dir, "v1")
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("char|%d", i)
		want[k] = strings.Repeat(k, 10)
		if err := s.Put(k, []byte(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("char|%d", i)
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	before := len(segments(t, dir))
	big := make([]byte, 64<<10)
	for i := 0; i < 2*compactFloor/len(big)+2; i++ {
		if err := s.Put("job|churn", big); err != nil {
			t.Fatal(err)
		}
	}
	want["job|churn"] = string(big)
	if segs := segments(t, dir); len(segs) != 1 || segs[0] == filepath.Join(dir, segmentName(uint64(before))) {
		t.Fatalf("segments after churn = %v, want one compacted segment", segs)
	}
	check := func(s *Store) {
		t.Helper()
		for k, v := range want {
			if got, ok := s.Get(k); !ok || string(got) != v {
				t.Errorf("%s = %.20q, %v", k, got, ok)
			}
		}
		for _, k := range []string{"char|0", "char|9", "stale"} {
			if _, ok := s.Get(k); ok {
				t.Errorf("%s survived compaction", k)
			}
		}
		if n := s.Len(); n != len(want) {
			t.Errorf("Len = %d, want %d", n, len(want))
		}
	}
	check(s)
	s.Close()
	check(open(t, dir, "v1"))
}

// TestSegmentsRoll: records past segmentBytes open a new segment, a
// record larger than a segment gets one of its own, and a reopen scans
// them all.
func TestSegmentsRoll(t *testing.T) {
	if testing.Short() {
		t.Skip("writes ~100 MiB")
	}
	dir := t.TempDir()
	s := open(t, dir, "v1")
	vals := map[string][]byte{
		"a": bytes.Repeat([]byte("a"), segmentBytes/2),
		"b": bytes.Repeat([]byte("b"), segmentBytes/2), // rolls: a+b overflow one segment
		"c": bytes.Repeat([]byte("c"), 16),
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("%d segments, want 2", n)
	}
	s.Close()
	s = open(t, dir, "v1")
	for k, v := range vals {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
			t.Errorf("%s after reopen: %d bytes, %v", k, len(got), ok)
		}
	}
}

// TestLegacyImport opens a directory in the one-file-per-entry layout
// (testdata/legacy, written by that layout: one live entry, one under
// another model version, one with a damaged payload). The live entry is
// imported and served byte-identical, the damaged one is quarantined, the
// stale one dropped, and no entries/ file is left behind.
func TestLegacyImport(t *testing.T) {
	dir := t.TempDir()
	fixtures, err := filepath.Glob("testdata/legacy/entries/*")
	if err != nil || len(fixtures) != 3 {
		t.Fatalf("fixtures %v (err %v), want 3", fixtures, err)
	}
	if err := os.Mkdir(filepath.Join(dir, legacyDir), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range fixtures {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, legacyDir, filepath.Base(p)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, "vtest")
	if got, ok := s.Get("char|live-point"); !ok || string(got) != "live payload\n" {
		t.Fatalf("imported entry = %q, %v", got, ok)
	}
	for _, k := range []string{"char|stale-point", "char|corrupt-point"} {
		if _, ok := s.Get(k); ok {
			t.Errorf("%s was imported", k)
		}
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Skipped != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 corrupt, 1 skipped, 1 entry", st)
	}
	if q, err := os.ReadDir(filepath.Join(dir, quarantineDir)); err != nil || len(q) != 1 {
		t.Errorf("quarantine holds %d files (err %v), want 1", len(q), err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyDir)); !os.IsNotExist(err) {
		t.Errorf("entries/ left behind: %v", err)
	}
	s.Close()
	s = open(t, dir, "vtest")
	if got, ok := s.Get("char|live-point"); !ok || string(got) != "live payload\n" {
		t.Fatalf("imported entry after a reopen = %q, %v", got, ok)
	}
}

func TestClosedStore(t *testing.T) {
	s := open(t, t.TempDir(), "v1")
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Error("second Close:", err)
	}
	if err := s.Put("k", []byte("w")); err == nil {
		t.Error("Put after Close succeeded")
	}
	if _, ok := s.Get("k"); ok {
		t.Error("Get after Close hit")
	}
}

// BenchmarkOpen times the index rebuild a boot pays: Open of a store
// holding 10,000 characterization-sized records in one segment.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	s := open(b, dir, "v1")
	val := make([]byte, 900)
	for i := 0; i < 10000; i++ {
		if err := s.Put(fmt.Sprintf("char|point-%d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{Version: "v1"})
		if err != nil || s.Len() != 10000 {
			b.Fatalf("Open: %v, %d keys", err, s.Len())
		}
		s.Close()
	}
}
